"""Black-box differential privacy testing.

Protocol (two phases, always on disjoint randomness):

1. `event_search` runs the mechanism many times on both sides of a neighbor
   pair and picks the outcome event with the worst empirical probability
   ratio, considering only events with enough mass to matter.
2. `dp_hypothesis_test` re-runs the mechanism on fresh samples and tests
   H0: P(M(d1) in E) <= e^eps P(M(d2) in E) + delta with a binomial
   construction (documented below).  Small p-values are evidence of a
   violation.

The two phases each derive their own child RandomSource from the source
they are handed, so search samples and test samples can never overlap.
Both are thin wrappers that sample and then call the slice-level
`select_event` and `event_pvalue`.  The repeated test of `report.audit_pair`
calls `select_event` on disjoint slices of larger samples and scores a whole
group's test slices in one `event_pvalues` call, so that a group of
repetitions costs one sampler call per side and phase; it tests pure
epsilon (delta = 0), the one budget kind dpcore charges.  `aggregate_pvalues`
turns the repetitions' p-values into a verdict.  Every draw of the audit,
the test's Binomial thinning included, comes from a ChaCha20 RandomSource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ContractViolation
from ..randomness import RandomSource, derive_source
from ..relational import Schema, Table, make_table, symmetric_difference
from .gof import binomial_draws, half_binomial_tails


@dataclass
class MechanismUnderTest:
    """A black-box mechanism: (Table, eps, RandomSource) -> real outcome.

    `run_many(table, eps, rng, n)` returns n outcomes at once.  Give either
    one: the other is derived from it.  The harness samples only through
    `run_many` and never inspects internals.
    """

    name: str
    run: Callable | None = None
    run_many: Callable | None = None

    def __post_init__(self) -> None:
        run, run_many = self.run, self.run_many
        if run is None and run_many is None:
            raise ContractViolation("a mechanism needs run or run_many")
        if run is None:
            self.run = lambda table, eps, rng: float(run_many(table, eps, rng, 1)[0])
        if run_many is None:
            self.run_many = lambda table, eps, rng, n: [run(table, eps, rng) for _ in range(n)]

    def sample(self, table: Table, eps: float, rng: RandomSource, n: int) -> np.ndarray:
        out = np.asarray(self.run_many(table, eps, rng, n), dtype=np.float64)
        if out.shape != (n,):
            raise ContractViolation("run_many returned the wrong number of outcomes")
        # A NaN falls in no interval and would turn every quantile into NaN;
        # an infinity turns the quantiles next to it into NaN.
        if not np.isfinite(out).all():
            raise ContractViolation("the mechanism returned a NaN or infinite outcome")
        return out


@dataclass(frozen=True)
class NeighborPair:
    d1: Table
    d2: Table
    name: str = ""

    def __post_init__(self) -> None:
        if symmetric_difference(self.d1, self.d2) != 1:
            raise ContractViolation("neighbor pair must have symmetric difference 1")


@dataclass(frozen=True)
class OutcomeEvent:
    """Closed interval event [lo, hi]; either end may be infinite.  The
    hypothesis test checks both orientations of the pair on it."""

    lo: float
    hi: float

    def describe(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def default_neighbor_suite(schema: Schema) -> list[NeighborPair]:
    """The standard chain of small, maximally-different databases.

    Two-column numeric schema (first in [0,100], second in [0,1]):
    DB1 = {}, DB2 = {(0,0)}, DB3 = {(100,1),(0,0)}, DB4 = {(100,1),(50,0),(0,0)},
    paired consecutively.  Any other schema shape is refused.
    """
    cols = schema.columns
    if len(cols) == 2 and cols[0].is_numeric and cols[1].is_numeric:
        if not (cols[0].lower <= 0 and cols[0].upper >= 100 and cols[1].lower <= 0 and cols[1].upper >= 1):
            raise ContractViolation("two-column suite needs domains covering [0,100] and [0,1]")
        db1 = make_table(schema, [])
        db2 = make_table(schema, [(0, 0)])
        db3 = make_table(schema, [(100, 1), (0, 0)])
        db4 = make_table(schema, [(100, 1), (50, 0), (0, 0)])
        return [
            NeighborPair(db1, db2, "DB1~DB2"),
            NeighborPair(db2, db3, "DB2~DB3"),
            NeighborPair(db3, db4, "DB3~DB4"),
        ]
    raise ContractViolation("no default suite for this schema shape")


_LEVELS = np.linspace(0.0, 1.0, 101)


def _percentiles(pooled: np.ndarray) -> np.ndarray:
    """The 1% quantiles of sorted `pooled`, bit-equal to `np.quantile`'s default
    rule at `_LEVELS`: virtual index (n - 1) * q, then numpy's two-sided lerp."""
    at = (len(pooled) - 1) * _LEVELS
    i = np.minimum(at.astype(np.intp), len(pooled) - 2)
    t = at - i
    a, b = pooled[i], pooled[i + 1]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def _candidate_counts(out: np.ndarray, qs: np.ndarray, counts: np.ndarray) -> None:
    """Fill row i of `counts`: how many of sorted `out` fall in (-inf, q_i], in
    [q_i, inf), and in [q_i, q_j] for every j (0 where j < i), as exact floats."""
    right = np.searchsorted(out, qs, side="right")
    left = np.searchsorted(out, qs, side="left")
    counts[:, 0], counts[:, 1] = right, len(out) - left
    np.subtract(right, left[:, None], out=counts[:, 2:])
    np.maximum(counts, 0.0, out=counts)


def require_samples(n: int, name: str) -> None:
    """Refuse fewer than 1000 samples: a test on a few would pass even a
    broken mechanism."""
    if n < 10 ** 3:
        raise ContractViolation(f"{name} must be at least 1000")


def event_search(
    m: MechanismUnderTest,
    pair: NeighborPair,
    eps: float,
    n_search: int,
    rng: RandomSource,
) -> OutcomeEvent:
    """`select_event` on n_search fresh outcomes of each side."""
    require_samples(n_search, "n_search")
    child = derive_source(rng)
    out1 = np.sort(m.sample(pair.d1, eps, child, n_search))
    out2 = np.sort(m.sample(pair.d2, eps, child, n_search))
    return select_event(out1, out2, eps)


def select_event(out1: np.ndarray, out2: np.ndarray, eps: float) -> OutcomeEvent:
    """Pick the interval with the worst empirical probability ratio between
    the sorted outcomes `out1` and `out2` of the two sides (equal lengths).

    The candidates are the rays below and above each distinct 1% quantile
    q_i of the pooled samples and every interval [q_i, q_j], j >= i.  Only
    intervals holding at least 0.001 * n_search * e^eps points on the
    denser side are eligible, which keeps the search away from pure noise in
    the far tails.  Among equal scores the first candidate in search order
    wins.  Degenerate outcome sets collapse to the point event.
    """
    pooled = np.sort(np.concatenate([out1, out2]))
    if pooled[0] == pooled[-1]:
        return OutcomeEvent(float(pooled[0]), float(pooled[0]))
    e_eps = math.exp(eps)
    min_count = 0.001 * len(out1) * e_eps
    # Row i of each side's k x (k + 2) count matrix holds, in search order, the
    # ray (-inf, q_i], the ray [q_i, inf) and [q_i, q_j] for ascending j.  Cells
    # with j < i count 0: below the floor (always > 0), argmax never picks them.
    qs = np.sort(_percentiles(pooled))  # np.unique's algorithm, without numpy.ma
    qs = qs[np.concatenate(([True], qs[1:] != qs[:-1]))]
    # One block, filled in place: glibc keeps a freed block this size for the next
    # search, where separate temporaries were trimmed and faulted back in each time.
    c1, c2, score_fwd, score = np.empty((4, len(qs), len(qs) + 2))
    _candidate_counts(out1, qs, c1)
    _candidate_counts(out2, qs, c2)
    # +1 smoothing on the sparse side keeps the score finite.
    np.divide(c1, np.multiply(e_eps, np.add(c2, 1.0, out=score_fwd), out=score_fwd),
              out=score_fwd)
    np.divide(c2, np.multiply(e_eps, np.add(c1, 1.0, out=score), out=score), out=score)
    np.maximum(score_fwd, score, out=score)
    score[np.maximum(c1, c2, out=c1) < min_count] = -math.inf
    i, col = divmod(int(np.argmax(score)), len(qs) + 2)
    if score[i, col] == -math.inf:
        return OutcomeEvent(-math.inf, math.inf)
    lo = -math.inf if col == 0 else float(qs[i])
    hi = float(qs[i]) if col == 0 else math.inf if col == 1 else float(qs[col - 2])
    return OutcomeEvent(lo, hi)


def dp_hypothesis_test(
    m: MechanismUnderTest,
    pair: NeighborPair,
    event: OutcomeEvent,
    eps: float,
    delta: float,
    n_test: int,
    rng: RandomSource,
) -> float:
    """`event_pvalue` on n_test fresh outcomes of each side.

    The event must come from samples disjoint from these; hand this function
    the same parent source as event_search and the derived children will
    not overlap.
    """
    require_samples(n_test, "n_test")
    child = derive_source(rng)
    out1 = m.sample(pair.d1, eps, child, n_test)
    out2 = m.sample(pair.d2, eps, child, n_test)
    return event_pvalue(out1, out2, event, eps, delta, child)


def event_pvalue(
    out1: np.ndarray, out2: np.ndarray, event: OutcomeEvent, eps: float, delta: float,
    rng: RandomSource,
) -> float:
    """`event_pvalues` of one repetition."""
    return float(event_pvalues(out1[None], out2[None], [event], eps, delta, rng)[0])


#: Draws of the thinning behind each p-value.
RESAMPLES = 100


def event_counts(events: list[OutcomeEvent], outcomes: np.ndarray) -> np.ndarray:
    """Row r: how many of outcomes[r] lie in the closed interval events[r]."""
    lo, hi = np.array([(e.lo, e.hi) for e in events]).T[:, :, None]
    return np.count_nonzero((outcomes >= lo) & (outcomes <= hi), axis=1)


def event_pvalues(
    out1: np.ndarray, out2: np.ndarray, events: list[OutcomeEvent], eps: float, delta: float,
    rng: RandomSource,
) -> np.ndarray:
    """Row r: the p-value of the DP inequality on events[r] over the outcomes
    out1[r] and out2[r] of the two sides (g x n each), after Ding et al.
    (CCS 2018), for H0: p1 <= e^eps p2 + delta.

    Both orientations (d1 excess and d2 excess) are tested and the smaller
    p-value is reported.  The delta slack is removed by subtracting
    ceil(n*delta) from the side alleged to be too heavy; that count is then
    thinned by e^-eps (Binomial draws from `rng`), after which the null
    predicts the thinned count s and the other side's count c exchangeable.
    The one-sided exact binomial comparison P[Bin(s + c, 1/2) >= s] gives the
    p-value; the thinning is drawn RESAMPLES times and the p-values averaged.
    """
    c1, c2 = event_counts(events, out1), event_counts(events, out2)
    heavy, light = np.concatenate([c1, c2]), np.concatenate([c2, c1])
    heavy = np.maximum(heavy - math.ceil(delta * out1.shape[1]), 0)
    p = half_binomial_tails(binomial_draws(rng, heavy, -eps, RESAMPLES), light).mean(axis=1)
    return np.minimum(p[:len(events)], p[len(events):])


@dataclass(frozen=True)
class PValueVerdict:
    mean_p: float
    mean_pass: bool
    bonferroni_min_p: float
    bonferroni_pass: bool


#: Mean of the per-repetition p-values of a correct mechanism should clear 0.3.
MEAN_P_THRESHOLD = 0.3
BONFERRONI_ALPHA = 0.05


def aggregate_pvalues(pvalues) -> PValueVerdict:
    """Combine repeated p-values into a verdict.

    `mean_pass` (the mean above MEAN_P_THRESHOLD) is the verdict the
    battery acts on.  The Bonferroni rule (the smallest p-value at least
    BONFERRONI_ALPHA / len(pvalues)) is reported beside it.
    """
    pvalues = list(pvalues)
    if not pvalues:
        raise ContractViolation("at least one p-value required")
    mean_p = float(np.mean(pvalues))
    min_p = float(np.min(pvalues))
    return PValueVerdict(mean_p, mean_p > MEAN_P_THRESHOLD,
                         min_p, min_p >= BONFERRONI_ALPHA / len(pvalues))
