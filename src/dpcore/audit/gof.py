"""Goodness-of-fit tests for samplers.

Anderson-Darling for continuous one-dimensional distributions (it weights
the tails, which is where privacy problems show up) and chi-squared for
discrete distributions with few outcomes.  The two tail probabilities the
audit needs, chi-squared and the fair-coin binomial of the black-box test,
are closed forms over ln n! and `math.lgamma`.
"""

from __future__ import annotations

import math

import numpy as np

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
    p = chi2_tail(statistic, dof) if dof > 0 else 1.0
    return statistic, p


def chi2_tail(x: float, dof: int) -> float:
    """P[chi^2 with `dof` degrees of freedom >= x], for an integer dof >= 1.

    With z = x/2 and h = 0 (even dof) or 1/2 (odd dof) this is
    [odd: erfc(sqrt z)] + sum_{j < dof//2} z^(j+h) e^-z / Gamma(j+h+1);
    each term is formed in log space and the terms are added exactly.
    """
    z = x / 2.0
    if z <= 0.0:
        return 1.0
    if math.isinf(z):
        return 0.0
    h = (dof % 2) / 2.0
    head = math.erfc(math.sqrt(z)) if dof % 2 else 0.0
    log_z = math.log(z)
    return math.fsum([head] + [math.exp((j + h) * log_z - z - math.lgamma(j + h + 1.0))
                               for j in range(dof // 2)])


#: ln k! for k < 16, below the Stirling series' range.
_SMALL_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(16)])


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """ln n! for an int64 array n >= 0: `math.lgamma` below 16 and the
    Stirling series up to its n^-7 term from 16 on, where the first term
    left out, 1/(1188 n^9), is below 1.3e-14."""
    m = np.maximum(n, 16).astype(np.float64)
    r = 1.0 / (m * m)
    series = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))) / m
    big = (m + 0.5) * np.log(m) - m + (0.5 * math.log(2.0 * math.pi)) + series
    return np.where(n < 16, _SMALL_LOG_FACTORIALS[np.minimum(n, 15)], big)


def half_binomial_tail(s, c2: int) -> np.ndarray:
    """P[Bin(s + c2, 1/2) >= s] for each entry of the integer array `s` >= 0.

    At least s heads in s + c2 fair flips means at least s heads before the
    (c2+1)-th tail, so this is P[Y >= s] for the negative binomial
    Y ~ NegBin(c2 + 1, 1/2), whose one pmf serves every s.  An s above Y's
    mean c2+1 sums the pmf down from the window's top, any other s takes one
    less the sum up from its bottom.  The window is s's range, widened by
    K = 20 sqrt(c2+1) + 100 only on a side that some sum starts from.  Y's
    log-concave tails put less than 1e-36 of the result outside it.
    """
    s = np.asarray(s, dtype=np.int64)
    k = int(20 * math.sqrt(c2 + 1)) + 100
    upper = s > c2 + 1
    lo = max(int(s.min()) - (0 if upper.all() else k), 0)
    hi = int(s.max()) + 1 + (k if upper.any() else 0)
    y = np.arange(lo, hi)
    log_pmf = (_log_factorial(y + c2) - _log_factorial(y) - math.lgamma(c2 + 1.0)
               - (y + c2 + 1) * math.log(2.0))
    pmf = np.exp(log_pmf)
    above = np.cumsum(pmf[::-1])[::-1]
    below = np.cumsum(pmf) - pmf
    i = s - lo
    return np.where(upper, above[i], 1.0 - below[i])


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
