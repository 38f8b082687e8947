"""Empirical verification of stability, sensitivity and Lipschitz claims,
plus the exponential-mechanism ratio checks.

The small-instance checks are exhaustive: they enumerate every multiset
over a small row pool up to a size cap and every add/remove perturbation up
to symmetric difference 3, and compare observed output movement against the
tracked bound.  An observation exceeding the bound is a hard failure.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from ..errors import ContractViolation
from ..randomness import RandomSource
from ..relational import (
    GroupedTable,
    Schema,
    StatVector,
    Table,
    make_table,
    symmetric_difference,
)


def _multisets(pool, size: int) -> Iterator[tuple]:
    return itertools.combinations_with_replacement(pool, size)


def enumerate_neighbor_pairs(
    schema: Schema, row_pool, max_rows: int = 4, max_k: int = 3
) -> Iterator[tuple[Table, Table, int]]:
    """All (A, B, k) with A a multiset over `row_pool` of size <= max_rows
    and B obtained by adding/removing up to max_k rows (k = exact symmetric
    difference)."""
    pool = [tuple(r) for r in row_pool]
    for size in range(max_rows + 1):
        for base in _multisets(pool, size):
            a = make_table(schema, base)
            base_counter = Counter(base)
            for add_n in range(max_k + 1):
                for rem_n in range(max_k + 1 - add_n):
                    k = add_n + rem_n
                    if k == 0:
                        continue
                    for added in _multisets(pool, add_n):
                        for removed in _multisets(sorted(base_counter.elements()), rem_n):
                            rem_counter = Counter(removed)
                            if any(rem_counter[r] > base_counter[r] for r in rem_counter):
                                continue
                            new_counter = base_counter + Counter(added) - rem_counter
                            # Adding a row identical to a removed one is a
                            # smaller perturbation than k; skip those.
                            if sum((Counter(added) & rem_counter).values()):
                                continue
                            b = make_table(schema, sorted(new_counter.elements()))
                            yield a, b, k


def output_distance(x, y) -> float:
    """Symmetric difference for tables/grouped tables, L1 for vectors."""
    if isinstance(x, Table) and isinstance(y, Table):
        return float(symmetric_difference(x, y))
    if isinstance(x, GroupedTable) and isinstance(y, GroupedTable):
        # A grouped table is a multiset of (key, record-set) entries; a
        # changed group counts once on each side.
        if x.labels != y.labels:
            raise ContractViolation("grouped outputs disagree on the key domain")
        mx, my = (Counter(zip(g.cells.tolist(), g.table.rows)) for g in (x, y))
        changed = {cell for cell, _ in (mx - my) + (my - mx)}
        return float(2 * len(changed))
    if isinstance(x, StatVector) and isinstance(y, StatVector):
        return float(np.sum(np.abs(x.values - y.values)))
    raise ContractViolation("mismatched output types")


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    worst_observed: float
    worst_bound: float
    witness: tuple | None = None  # (rows_a, rows_b, k) achieving the worst ratio


def stability_check(
    chain: Callable[[Table], Table | GroupedTable | StatVector],
    claimed_factor: float,
    schema: Schema,
    row_pool,
    max_rows: int = 4,
    max_k: int = 3,
) -> CheckResult:
    """Pass iff output distance (see `output_distance`) <= claimed_factor * k
    on every enumerated input pair."""
    worst = (0.0, 0.0, None)
    passed = True
    for a, b, k in enumerate_neighbor_pairs(schema, row_pool, max_rows, max_k):
        observed = output_distance(chain(a), chain(b))
        bound = claimed_factor * k
        if observed > bound:
            passed = False
        if worst[2] is None or observed - bound > worst[0] - worst[1]:
            worst = (observed, bound, (a.rows, b.rows, k))
    return CheckResult(passed, worst[0], worst[1], worst[2])


def sensitivity_check(
    pipeline: Callable[[Table], StatVector],
    claimed_delta: float,
    schema: Schema,
    row_pool,
    max_rows: int = 4,
    max_k: int = 3,
) -> CheckResult:
    """Pass iff L1 output distance <= claimed_delta * k on every enumerated
    input pair, and the pipeline's own reported sensitivity never exceeds
    the claim."""
    reported = []

    def observed(t: Table) -> StatVector:
        v = pipeline(t)
        reported.append(v.l1_sensitivity)
        return v

    result = stability_check(observed, claimed_delta, schema, row_pool, max_rows, max_k)
    return replace(result, passed=result.passed and max(reported, default=0.0) <= claimed_delta)


def lipschitz_check(
    vector_map: Callable[[np.ndarray], np.ndarray],
    claimed_c: float,
    dim: int,
    rng: RandomSource,
    trials: int = 200,
    perturbation: float = 1.0,
) -> CheckResult:
    """Pass iff ||f(x + e) - f(x)||_1 <= claimed_c * ||e||_1 over random
    probes, including all single-coordinate unit perturbations."""
    worst = (0.0, 0.0, None)
    passed = True

    def probe(x: np.ndarray, e: np.ndarray):
        nonlocal worst, passed
        observed = float(np.sum(np.abs(vector_map(x + e) - vector_map(x))))
        bound = claimed_c * float(np.sum(np.abs(e)))
        if observed > bound * (1 + 1e-12):
            passed = False
        if worst[2] is None or observed - bound > worst[0] - worst[1]:
            worst = (observed, bound, (tuple(x), tuple(e)))

    for i in range(dim):
        for sign in (+1.0, -1.0):
            e = np.zeros(dim)
            e[i] = sign * perturbation
            probe(np.zeros(dim), e)
    for _ in range(trials):
        x = (rng.uniform_full(dim) - 0.5) * 20.0
        e = (rng.uniform_full(dim) - 0.5) * 2.0 * perturbation
        probe(x, e)
    return CheckResult(passed, worst[0], worst[1], worst[2])


def expmech_ratio_check(
    log_probabilities: Callable[[np.ndarray, float, float], np.ndarray],
    rng: RandomSource,
    trials: int = 200,
    n_candidates: int = 5,
) -> CheckResult:
    """Privacy-ratio and hole checks on an exponential-mechanism weight
    implementation exposing its log selection probabilities.

    Randomized sweep: eps = 10^x with x uniform in [-6, 1], sensitivity
    uniform in [0.1, 5], integer qualities in [-1000, 1000].  One quality is
    shifted by the sensitivity (worst-case neighbor) and all qualities are
    shifted together (ratios must then be exactly 1 for a shift-invariant
    log-domain implementation).  Every candidate's selection-probability
    ratio must lie in [e^-eps, e^eps], and no candidate may flip between
    zero and nonzero probability.
    """
    worst = (0.0, 0.0, None)
    passed = True
    tol = 1e-9

    def worstify(candidate) -> None:
        nonlocal worst
        if worst[2] is None or candidate[0] - candidate[1] > worst[0] - worst[1]:
            worst = candidate

    def check_pair(lp_a: np.ndarray, lp_b: np.ndarray, eps_bound: float, ctx) -> None:
        nonlocal passed
        finite_a, finite_b = np.isfinite(lp_a), np.isfinite(lp_b)
        if not np.array_equal(finite_a, finite_b):
            passed = False
            worstify((math.inf, eps_bound, ctx))
            return
        ratio = float(np.max(np.abs(lp_a - lp_b))) if np.all(finite_a) else math.inf
        if ratio > eps_bound + tol:
            passed = False
        worstify((ratio, eps_bound, ctx))

    # The draft's zero/nonzero hole probe: eps=1, sensitivity 0.5, qualities
    # (40, 1) against the reversed (1, 40).
    lp_a = log_probabilities(np.array([40.0, 1.0]), 0.5, 1.0)
    lp_b = log_probabilities(np.array([1.0, 40.0]), 0.5, 1.0)
    if not np.array_equal(np.isfinite(lp_a), np.isfinite(lp_b[::-1])):
        passed = False
        worstify((math.inf, 0.0, ("hole-check",)))

    for _ in range(trials):
        x = -6.0 + 7.0 * rng.uniform_full()
        eps = 10.0 ** x
        delta_q = 0.1 + 4.9 * rng.uniform_full()
        q = np.array([float(rng.randbelow(2001) - 1000) for _ in range(n_candidates)])
        shifted = q.copy()
        idx = rng.randbelow(n_candidates)
        shifted[idx] += delta_q
        check_pair(
            log_probabilities(q, delta_q, eps),
            log_probabilities(shifted, delta_q, eps),
            eps,
            ("single-shift", eps, delta_q, tuple(q), idx),
        )
        all_shifted = q + delta_q
        check_pair(
            log_probabilities(q, delta_q, eps),
            log_probabilities(all_shifted, delta_q, eps),
            0.0,  # shift invariance: ratios exactly 1
            ("all-shift", eps, delta_q, tuple(q)),
        )
    return CheckResult(passed, worst[0], worst[1], worst[2])
