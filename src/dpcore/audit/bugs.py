"""Catalog of deliberately broken mechanism variants.

These exist so the audit harness has known-bad inputs to prove its own
power against.  Every entry must be flagged by at least one audit
operation; the test suite pins which operation catches which bug.

Nothing in here is reachable from production code paths.
"""

from __future__ import annotations

import math

import numpy as np

from ..randomness import RandomSource, sample_exponential, sample_laplace
from ..relational import Table
from ..transforms import aggregate, group_by
from .blackbox import MechanismUnderTest


def half_noise_laplace_count() -> MechanismUnderTest:
    """Claims eps but adds Laplace noise at half the required scale, so it
    actually satisfies only 2*eps-DP.  Caught by the black-box battery."""

    def run_many(table: Table, eps: float, rng: RandomSource, n: int) -> np.ndarray:
        v = aggregate(table, "count")
        return v.values[0] + sample_laplace(rng, v.l1_sensitivity / (2.0 * eps), size=n)

    return MechanismUnderTest("bug:half_noise_laplace_count", run_many=run_many)


def data_dependent_histogram(key_column: str):
    """Histogram that only emits cells for values present in the data.

    The cell set changes between neighboring inputs, which the white-box
    cell-constancy check flags immediately.
    """

    def run(table: Table, eps: float, rng: RandomSource) -> dict:
        grouped = group_by(table, [key_column])
        v = aggregate(grouped, "count")
        noisy = v.values + sample_laplace(rng, v.l1_sensitivity / eps, size=len(v))
        return {
            label: float(x)
            for label, x, exact in zip(v.dimension_labels, noisy, v.values)
            if exact > 0  # <- data-dependent cell suppression
        }

    return run


def linear_scale_exponential_mechanism(
    quality: np.ndarray, delta_q: float, eps: float
) -> np.ndarray:
    """The naive cumulative-sum implementation: exponentiates weights in
    linear scale, where large quality gaps underflow to exact zeros.

    Returns log selection probabilities (with log 0 = -inf), so it plugs
    straight into expmech_ratio_check, which flags the zero/nonzero holes.
    """
    with np.errstate(over="ignore"):
        w = np.exp(eps * np.asarray(quality, dtype=np.float64) / (2.0 * delta_q))
    total = float(np.sum(w))
    with np.errstate(divide="ignore"):
        if not math.isfinite(total) or total == 0.0:
            # Overflowed: the naive code would crash or misbehave; represent
            # the resulting degenerate distribution.
            out = np.where(w == np.max(w), 0.0, -np.inf)
            return out
        return np.log(w / total)


def tie_biased_noisy_max() -> "object":
    """Noisy max that coarsely discretizes its noise and then breaks the
    frequent ties toward the *largest* index.

    Violates the documented smallest-index tie rule; the deterministic
    tie-break check (all answers equal under a zero-noise scripted source)
    flags it.
    """

    def run(answers, eps: float, rng: RandomSource) -> int:
        values = np.asarray(answers, dtype=np.float64)
        noise = sample_exponential(rng, 2.0 / eps, size=values.shape[0])
        noisy = values + np.rint(noise)  # coarse discretization -> ties
        best = np.max(noisy)
        return int(np.nonzero(noisy == best)[0][-1])  # <- biased tie-break

    return run


def accountant_bypass_laplace_count(scope) -> MechanismUnderTest:
    """Laplace count that samples and releases without ever charging.

    Caught by the mediation check: releases outnumber ledger entries.
    """

    def run(table: Table, eps: float, rng: RandomSource) -> float:
        v = aggregate(table, "count")
        # No scope.charge(...) call: that is the bug.
        return float(v.values[0] + sample_laplace(rng, v.l1_sensitivity / eps))

    return MechanismUnderTest("bug:accountant_bypass", run)


CATALOG = {
    "half_noise_laplace_count": half_noise_laplace_count,
    "data_dependent_histogram": data_dependent_histogram,
    "linear_scale_exponential_mechanism": linear_scale_exponential_mechanism,
    "tie_biased_noisy_max": tie_biased_noisy_max,
    "accountant_bypass_laplace_count": accountant_bypass_laplace_count,
}
