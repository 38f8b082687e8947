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
from .randomness import (
    RandomSource, log_add, sample_discrete_laplace, sample_exponential, sample_laplace,
)
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
    values = v.values.copy()
    if v.l1_sensitivity > 0 and discretize:
        scale = Fraction(v.l1_sensitivity) / Fraction(eps)
        values = values + [sample_discrete_laplace(rng, scale) for _ in range(len(v))]
    elif v.l1_sensitivity > 0:
        values = values + sample_laplace(rng, v.l1_sensitivity / eps, size=len(v))
    return MechanismResult(values, charge, v.dimension_labels)


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
    return _laplace_release(v, eps, accountant, rng, "laplace", discretize)


def report_noisy_max(
    answers: StatVector, eps: float, accountant: ScopeHandle, rng: RandomSource
) -> int:
    """Index of the largest exponentially-noised answer; the index is all
    that is released.

    Each entry gets independent Exp(2/eps) noise (per-entry sensitivity 1);
    ties break toward the smallest index.  A NaN or infinite answer would
    pick the index itself, so it is refused before the charge.
    """
    if len(answers) == 0:
        raise ContractViolation("report_noisy_max requires a nonempty vector")
    if not np.isfinite(answers.values).all():
        raise ParameterError("report_noisy_max requires finite answers")
    _spend(accountant, eps, 1.0, "report_noisy_max")
    noisy = answers.values + sample_exponential(rng, 2.0 / eps, size=len(answers))
    return int(np.argmax(noisy))  # argmax takes the first of equal maxima


def _log_weights(quality, delta_q: float, eps: float) -> tuple[np.ndarray, float]:
    """Unnormalized log weights b_i = eps*q_i/(2 delta_q) and log Z, summed
    in log domain by log_add."""
    b = eps * np.asarray(quality, dtype=np.float64) / (2.0 * delta_q)
    log_z = -math.inf
    for bi in b:
        log_z = log_add(log_z, float(bi))
    return b, log_z


def exponential_mechanism_log_probabilities(
    quality: np.ndarray, delta_q: float, eps: float
) -> np.ndarray:
    """Log selection probabilities eps*q_i/(2 delta_q) - log Z, via log_add.

    Exposed so audits can check the privacy ratio constraints directly on
    the weights the sampler actually uses.  Never leaves log scale.
    """
    b, log_z = _log_weights(quality, delta_q, eps)
    return b - log_z


def exponential_mechanism(
    candidates,
    quality,
    delta_q: float,
    eps: float,
    accountant: ScopeHandle,
    rng: RandomSource,
):
    """Sample candidate i with probability proportional to exp(eps*q_i/(2 delta_q)).

    The cumulative comparison happens entirely in log domain: normalized
    probabilities are never materialized in linear scale, so no candidate's
    weight can underflow to an exact zero.  Prefer report_noisy_max where an
    argmax release suffices; this mechanism is kept for arbitrary candidate
    sets, hardened as above.
    """
    if not delta_q > 0:
        raise ParameterError("delta_q must be positive")
    candidates = list(candidates)
    quality = np.asarray(quality, dtype=np.float64)
    if not candidates:
        raise ContractViolation("exponential_mechanism requires candidates")
    if len(candidates) != quality.shape[0]:
        raise ContractViolation("one quality score per candidate required")
    if not np.isfinite(quality).all():  # a NaN weight would pick the last candidate
        raise ParameterError("exponential_mechanism requires finite qualities")
    _spend(accountant, eps, 0.0, "exponential_mechanism")  # log-domain weights: no floor
    b, log_z = _log_weights(quality, delta_q, eps)
    # Inverse-CDF in log domain: find the first index whose cumulative log
    # weight reaches log(u) + log Z.
    target = math.log(rng.uniform_full()) + log_z
    cum = -math.inf
    for i, bi in enumerate(b):
        cum = log_add(cum, float(bi))
        if cum >= target:
            return candidates[i]
    return candidates[-1]


def noisy_histogram(
    grouped_counts: StatVector, eps: float, accountant: ScopeHandle, rng: RandomSource
) -> MechanismResult:
    """Laplace(sensitivity/eps) noise on every cell of the declared domain.

    The cell set comes from metadata, so it is identical across runs and
    across neighboring inputs; empty groups are released as pure noise.
    """
    return _laplace_release(grouped_counts, eps, accountant, rng, "noisy_histogram")

