"""Built-in mechanisms packaged for the black-box harness.

Each target wires a data-access aggregation to the Laplace sampler of the
privacy layer and defines only `run_many`.  Every `run_many` call computes
the exact aggregate again and charges eps * n to the target's own unlimited
scope, created once with the target; within one call only the noise is
redrawn for each of the n outcomes, which is exactly the separation the
layering exists to allow.
`MechanismUnderTest` derives `run` from it.
"""

from __future__ import annotations

import math

import numpy as np

from ..accounting import Accountant
from ..randomness import RandomSource, sample_laplace
from ..relational import Table
from ..transforms import aggregate
from .blackbox import MechanismUnderTest


def _laplace_target(name: str, *agg) -> MechanismUnderTest:
    scope = Accountant().create_scope("audit", budget=math.inf)

    def run_many(table: Table, eps: float, rng: RandomSource, n: int) -> np.ndarray:
        v = aggregate(table, *agg)
        scope.charge(eps * n, "laplace")  # one charge per run
        return v.values[0] + sample_laplace(rng, v.l1_sensitivity / eps, size=n)

    return MechanismUnderTest(name, run_many=run_many)


def laplace_count_target() -> MechanismUnderTest:
    """COUNT(*) + Laplace(1/eps)."""
    return _laplace_target("laplace_count", "count")


def laplace_sum_target(column: str = "c0") -> MechanismUnderTest:
    """SUM(column) + Laplace(sensitivity/eps) with metadata-derived sensitivity."""
    return _laplace_target(f"laplace_sum({column})", "sum", column)


def _builtin_targets() -> dict:
    from .bugs import half_noise_laplace_count

    return {
        "laplace_count": laplace_count_target,
        "laplace_sum": laplace_sum_target,
        # The seeded-bug target is exposed so operators can verify the
        # harness's detection power from the command line.
        "bug:half_noise_laplace_count": half_noise_laplace_count,
    }


BUILTIN_TARGETS = _builtin_targets()
