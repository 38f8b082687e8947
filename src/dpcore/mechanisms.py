"""Base randomized computations of the privacy layer.

`release` is the only path from an exact StatVector to anything
user-visible: it decides which mechanisms ship, what each charges and what
noise it draws.  Every release is mediated by the accountant: the charge
is granted (and written to the ledger) before any randomness is consumed, so
a denied request spends nothing, samples nothing, and fails with the uniform
budget message.

Mechanisms never see raw tables.  `private_release` checks a plan on a
registered table's schema, then `release` refuses, charges, has the table
loaded and scanned, and draws, in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .accounting import PrivacyCharge, ScopeHandle
from .errors import ContractViolation, ParameterError
from .randomness import RandomSource, sample_discrete_laplace, sample_laplace
from .relational import StatVector

if TYPE_CHECKING:  # annotations only: the audit releases without the registry
    from .registry import DatasetRegistry
    from .transforms import Claim, TransformPlan

#: The mechanisms a query may name, each booked in the ledger under its name.
MECHANISMS = ("laplace", "laplace_int", "noisy_histogram")

#: Lower limit on eps/sensitivity.  Tiny budgets mean enormous noise scales,
#: which is where floating-point "holes" appear; requests below the floor are
#: parameter errors, not silent degradations.
EPSILON_SENSITIVITY_FLOOR = 1e-3


@dataclass(frozen=True)
class MechanismResult:
    """Released values plus the ledger receipt that paid for them."""

    values: np.ndarray
    charge: PrivacyCharge
    labels: tuple[str, ...] = ()


def release(v: StatVector | Claim, mechanism: str, eps: float, scope: ScopeHandle,
            rng: RandomSource, scan=None) -> MechanismResult:
    """Add noise of scale sensitivity/eps to each coordinate of `v`, as the
    named mechanism draws it, and book the charge under that name.

    `laplace` and `noisy_histogram` draw float Laplace noise; a histogram's
    cells come from metadata, so empty groups are released as pure noise.
    `laplace_int` draws the exact discrete Laplace (rationals, integer draws
    only), private on integer-valued statistics only.  Outputs are released
    as-is: no truncation, no clamping; negative counts are the
    postprocessing layer's business.

    `v` is the exact StatVector, or a plan's Claim on one that `scan` computes.
    Every refusal comes before the charge, the scan after it (a failed scan
    keeps it), and the charge before the first draw.  eps must be finite
    and > 0: an infinite one would be booked and then fail in the sampler,
    leaving `spent` infinite for good.  A positive sensitivity also holds
    eps/sensitivity to the floor; 0 skips it.
    """
    if mechanism not in MECHANISMS:
        raise ContractViolation(f"unknown mechanism {mechanism!r}")
    discretize = mechanism == "laplace_int"
    if discretize and not v.integral:
        raise ContractViolation("integer noise is private on integer-valued statistics only")
    if not (eps > 0 and math.isfinite(eps)):
        raise ParameterError("eps must be finite and positive")
    if v.l1_sensitivity > 0 and eps / v.l1_sensitivity < EPSILON_SENSITIVITY_FLOOR:
        raise ParameterError(
            "eps/sensitivity below the 1e-3 floor; refusing to sample at this "
            "noise scale"
        )
    charge = scope.charge(eps, mechanism)
    v = v if scan is None else scan()
    if v.l1_sensitivity > 0 and discretize:
        scale = Fraction(v.l1_sensitivity) / Fraction(eps)
        values = v.values + [sample_discrete_laplace(rng, scale) for _ in range(len(v))]
    elif v.l1_sensitivity > 0:
        # The fresh noise array takes the sum, so the release allocates one
        # array, not two; addition commutes, so the bits are those of v + noise.
        values = sample_laplace(rng, v.l1_sensitivity / eps, size=len(v))
        np.add(values, v.values, out=values)
    else:
        values = v.values + 0.0  # a writable copy
    return MechanismResult(values, charge, v.dimension_labels)


def private_release(registry: DatasetRegistry, handle: str, plan: TransformPlan, mechanism: str,
                    eps: float, scope: ScopeHandle, rng: RandomSource) -> MechanismResult:
    """Check a plan on a registered table's schema and release it through
    the named mechanism; its rows are loaded and scanned once charged."""
    claim = plan.check(registry.schema(handle))
    return release(claim, mechanism, eps, scope, rng,
                   lambda: claim.run(registry.table(handle), rng))


def laplace_mechanism(v: StatVector, eps: float, accountant: ScopeHandle, rng: RandomSource,
                      discretize: bool = False) -> MechanismResult:
    """`release` through `laplace`, or `laplace_int` with `discretize`."""
    return release(v, "laplace_int" if discretize else "laplace", eps, accountant, rng)


def noisy_histogram(grouped_counts: StatVector, eps: float, accountant: ScopeHandle,
                    rng: RandomSource) -> MechanismResult:
    """`release` through `noisy_histogram`: noise on every cell of the
    declared domain, the same cell set across runs and neighboring inputs."""
    return release(grouped_counts, "noisy_histogram", eps, accountant, rng)

