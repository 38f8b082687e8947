"""Goodness-of-fit tests for samplers.

Anderson-Darling for continuous one-dimensional distributions (it weights
the tails, which is where privacy problems show up) and chi-squared for
discrete distributions with few outcomes.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

#: 99% percentile of the asymptotic Anderson-Darling null distribution.
AD_CRITICAL_99 = 3.8781250216053948842


def anderson_darling(samples, cdf) -> tuple[float, bool]:
    """Anderson-Darling statistic of `samples` against the continuous CDF.

    A^2 = -n - sum_{i=1..n} ((2i-1)/n) (ln F(y_i) + ln(1 - F(y_{n-i+1})))
    over the sorted sample; passes iff A^2 <= the 99% critical value.
    CDF values are clamped away from {0, 1} before the logs.
    """
    y = np.sort(np.asarray(samples, dtype=np.float64))
    n = y.shape[0]
    if n < 2:
        raise ValueError("need at least two samples")
    if not np.all(np.isfinite(y)):
        raise ValueError("samples must be finite")
    f = np.clip(cdf(y), np.finfo(np.float64).tiny, 1.0 - np.finfo(np.float64).epsneg)
    i = np.arange(1, n + 1, dtype=np.float64)
    statistic = -n - np.sum((2.0 * i - 1.0) / n * (np.log(f) + np.log(1.0 - f[::-1])))
    return float(statistic), bool(statistic <= AD_CRITICAL_99)


def chi_squared_gof(observed, expected_probs) -> tuple[float, float]:
    """Chi-squared GOF statistic and upper-tail p-value (k-1 dof).

    `observed` are outcome counts, `expected_probs` the null probabilities.
    An expected probability of zero with a nonzero observation is an error
    (the null assigns that outcome no mass).
    """
    observed = np.asarray(observed, dtype=np.float64)
    probs = np.asarray(expected_probs, dtype=np.float64)
    if observed.shape != probs.shape:
        raise ValueError("observed and expected shapes differ")
    total = observed.sum()
    expected = probs * total
    if np.any((expected == 0) & (observed > 0)):
        raise ValueError("nonzero observation with zero expected probability")
    mask = expected > 0
    statistic = float(np.sum((observed[mask] - expected[mask]) ** 2 / expected[mask]))
    dof = int(mask.sum()) - 1
    p = float(stats.chi2.sf(statistic, dof)) if dof > 0 else 1.0
    return statistic, p


# Reference CDFs used by the sampler test batteries.

def laplace_cdf(scale: float):
    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))

    return cdf


def two_sided_geometric_pmf(alpha: float, support) -> np.ndarray:
    """Exact masses P(k) = (1-alpha)/(1+alpha) * alpha^|k| on the given support."""
    k = np.asarray(support, dtype=np.int64)
    return (1.0 - alpha) / (1.0 + alpha) * alpha ** np.abs(k)
