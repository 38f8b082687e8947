"""Deliberately broken mechanism variants that only the tests use.

They give the audit checks known-bad inputs to prove their power against;
test_audit.py pins which check catches which bug.  The one seeded bug that
ships, `bug:half_noise_laplace_count`, is in dpcore.audit.targets.
"""

from __future__ import annotations

import math

import numpy as np

from dpcore.audit.blackbox import MechanismUnderTest
from dpcore.randomness import RandomSource, sample_laplace
from dpcore.relational import Table
from dpcore.transforms import aggregate, group_by
from steps import apply


def data_dependent_histogram(key_column: str):
    """Histogram that only emits cells for values present in the data.

    The cell set changes between neighboring inputs, which the white-box
    cell-constancy check flags immediately.
    """

    def run(table: Table, eps: float, rng: RandomSource) -> dict:
        grouped = apply(group_by, table, [key_column])
        v = apply(aggregate, grouped, "count")
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


def accountant_bypass_laplace_count(scope) -> MechanismUnderTest:
    """Laplace count that samples and releases without ever charging.

    Caught by the mediation check: releases outnumber ledger entries.
    """

    def run(table: Table, eps: float, rng: RandomSource) -> float:
        v = apply(aggregate, table, "count")
        # No scope.charge(...) call: that is the bug.
        return float(v.values[0] + sample_laplace(rng, v.l1_sensitivity / eps, size=1)[0])

    return MechanismUnderTest("bug:accountant_bypass", run)
