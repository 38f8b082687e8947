"""Base randomized computations of the privacy layer.

Every mechanism here is the only path from an exact StatVector to anything
user-visible, and every invocation is mediated by the accountant: the charge
is granted (and written to the ledger) before any randomness is consumed, so
a denied request spends nothing, samples nothing, and fails with the uniform
budget message.

Mechanisms never see raw tables: they accept StatVectors and metadata only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .accounting import PrivacyCharge, ScopeHandle
from .errors import ContractViolation, ParameterError
from .randomness import RandomSource, log_add, sample_discrete_laplace, sample_laplace
from .relational import StatVector

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


def _spend(scope: ScopeHandle, eps: float, sensitivity: float, mechanism: str) -> PrivacyCharge:
    """The one charge path of every mechanism, taken before its first draw.

    A finite eps > 0 only: an infinite one would be booked and then fail in
    the sampler, leaving `spent` infinite for good.  A positive sensitivity
    also holds eps/sensitivity to the floor; 0 skips it.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ParameterError("eps must be finite and positive")
    if sensitivity > 0 and eps / sensitivity < EPSILON_SENSITIVITY_FLOOR:
        raise ParameterError(
            "eps/sensitivity below the 1e-3 floor; refusing to sample at this "
            "noise scale"
        )
    return scope.charge(eps, mechanism)


def _laplace_release(
    v: StatVector, eps: float, accountant: ScopeHandle, rng: RandomSource,
    mechanism: str, discretize: bool = False,
) -> MechanismResult:
    if discretize and not v.integral:
        raise ContractViolation("integer noise is private on integer-valued statistics only")
    charge = _spend(accountant, eps, v.l1_sensitivity, mechanism)
    noise = 0.0  # `v.values + noise` below allocates the release: no copy is taken first
    if v.l1_sensitivity > 0 and discretize:
        scale = Fraction(v.l1_sensitivity) / Fraction(eps)
        noise = [sample_discrete_laplace(rng, scale) for _ in range(len(v))]
    elif v.l1_sensitivity > 0:
        noise = sample_laplace(rng, v.l1_sensitivity / eps, size=len(v))
    return MechanismResult(v.values + noise, charge, v.dimension_labels)


def laplace_mechanism(
    v: StatVector,
    eps: float,
    accountant: ScopeHandle,
    rng: RandomSource,
    discretize: bool = False,
) -> MechanismResult:
    """Add Laplace(sensitivity/eps) noise per coordinate.

    Outputs are released as-is: no truncation, no clamping; negative counts
    are the postprocessing layer's business.  With `discretize` the noise is
    the exact discrete Laplace of scale sensitivity/eps (rationals, integer
    draws only), which is private only on integer values: a vector not
    marked `integral` is refused before the charge.
    """
    return _laplace_release(v, eps, accountant, rng,
                            "laplace_int" if discretize else "laplace", discretize)


def exponential_mechanism_log_probabilities(
    quality: np.ndarray, delta_q: float, eps: float
) -> np.ndarray:
    """Log selection probabilities b_i - log Z of the exponential mechanism,
    with b_i = eps*q_i/(2 delta_q) and log Z summed by log_add.

    Never leaves log scale, so no candidate's probability underflows to an
    exact zero; the audit's ratio checks run on these values.
    """
    b = eps * np.asarray(quality, dtype=np.float64) / (2.0 * delta_q)
    log_z = -math.inf
    for bi in b:
        log_z = log_add(log_z, float(bi))
    return b - log_z


def noisy_histogram(
    grouped_counts: StatVector, eps: float, accountant: ScopeHandle, rng: RandomSource
) -> MechanismResult:
    """Laplace(sensitivity/eps) noise on every cell of the declared domain.

    The cell set comes from metadata, so it is identical across runs and
    across neighboring inputs; empty groups are released as pure noise.
    """
    return _laplace_release(grouped_counts, eps, accountant, rng, "noisy_histogram")

