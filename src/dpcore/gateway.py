"""Privacy gateway: the one bridge from data access to released values.

The service layer hands a dataset handle, a plan and a mechanism name to
this module; the exact StatVector produced by the data access layer never
travels further up the stack than these functions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .accounting import ScopeHandle
from .errors import ContractViolation
from .mechanisms import MechanismResult, laplace_mechanism, noisy_histogram
from .randomness import RandomSource
from .relational import StatVector

if TYPE_CHECKING:  # annotations only: the audit releases without the registry
    from .registry import DatasetRegistry
    from .transforms import TransformPlan

MECHANISMS = ("laplace", "laplace_int", "noisy_histogram")


def release(vector: StatVector, mechanism: str, eps: float, scope: ScopeHandle,
            rng: RandomSource) -> MechanismResult:
    """The mechanism half of `private_release`; the audit's built-in targets call it."""
    if mechanism not in MECHANISMS:
        raise ContractViolation(f"unknown mechanism {mechanism!r}")
    if mechanism == "noisy_histogram":
        return noisy_histogram(vector, eps, scope, rng)
    return laplace_mechanism(vector, eps, scope, rng, discretize=mechanism == "laplace_int")


def private_release(registry: DatasetRegistry, handle: str, plan: TransformPlan, mechanism: str,
                    eps: float, scope: ScopeHandle, rng: RandomSource, clock=None,
                    xi: float | None = None) -> MechanismResult:
    """Execute a plan and release it through the named mechanism."""
    return release(registry.execute_plan(handle, plan, rng=rng, clock=clock, xi=xi),
                   mechanism, eps, scope, rng)
