"""Privacy gateway: the one bridge from data access to released values.

The service layer hands a dataset handle, a plan and a mechanism name to
this module; the exact StatVector produced by the data access layer never
travels further up the stack than these functions.
"""

from __future__ import annotations

from .accounting import ScopeHandle
from .errors import ContractViolation
from .mechanisms import MechanismResult, laplace_mechanism, noisy_histogram
from .randomness import RandomSource
from .registry import DatasetRegistry
from .transforms import TransformPlan

MECHANISMS = ("laplace", "laplace_int", "noisy_histogram")


def private_release(
    registry: DatasetRegistry,
    handle: str,
    plan: TransformPlan,
    mechanism: str,
    eps: float,
    scope: ScopeHandle,
    rng: RandomSource,
    clock=None,
    xi: float | None = None,
) -> MechanismResult:
    """Execute a plan and release it through the named mechanism."""
    if mechanism not in MECHANISMS:
        raise ContractViolation(f"unknown mechanism {mechanism!r}")
    vector = registry.execute_plan(handle, plan, rng=rng, clock=clock, xi=xi)
    if mechanism == "noisy_histogram":
        return noisy_histogram(vector, eps, scope, rng)
    return laplace_mechanism(vector, eps, scope, rng, discretize=mechanism == "laplace_int")
