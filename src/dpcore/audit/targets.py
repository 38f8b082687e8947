"""Built-in mechanisms for the black-box harness, released through the
gateway as a query is.  Each `run_many` call runs its plan once and releases
the exact one-cell StatVector tiled n times (a read-only view with one label
per cell, sensitivity n*Δ) through `gateway.release` at n*eps: n-fold
composition, so each outcome carries Laplace(Δ/eps) noise, up to the float
rounding of the scale.  The charge goes to an unlimited scope of an
accountant closed before the call returns, and an eps/Δ under the
mechanisms' floor is refused.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .. import gateway
from ..accounting import Accountant
from ..randomness import RandomSource
from ..relational import StatVector, Table
from ..transforms import parse_plan
from .blackbox import MechanismUnderTest
from .bugs import half_noise_laplace_count


def _gateway_target(name: str, plan_text: str) -> MechanismUnderTest:
    plan = parse_plan(plan_text)

    def run_many(table: Table, eps: float, rng: RandomSource, n: int) -> np.ndarray:
        v = plan.execute(table)
        tiled = StatVector(np.broadcast_to(v.values, (n,)), n * v.l1_sensitivity,
                           v.dimension_labels * n, v.integral)
        with contextlib.closing(Accountant()) as accountant:
            scope = accountant.create_scope("audit")  # an unlimited budget
            return gateway.release(tiled, "laplace", n * eps, scope, rng).values

    return MechanismUnderTest(name, run_many=run_many)


def laplace_count_target() -> MechanismUnderTest:
    """COUNT(*) + Laplace(1/eps)."""
    return _gateway_target("laplace_count", "count")


def laplace_sum_target() -> MechanismUnderTest:
    """SUM(c0) + Laplace(sensitivity/eps) with metadata-derived sensitivity."""
    return _gateway_target("laplace_sum(c0)", "sum c0")


BUILTIN_TARGETS = {
    "laplace_count": laplace_count_target,
    "laplace_sum": laplace_sum_target,
    # The seeded bug lets an operator confirm the harness's power from the
    # command line: `dpcore audit` must flag it.
    "bug:half_noise_laplace_count": half_noise_laplace_count,
}
