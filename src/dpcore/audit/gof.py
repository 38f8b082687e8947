"""Goodness-of-fit and tail probabilities for the audit.

Anderson-Darling for continuous one-dimensional distributions (it weights
the tails, which is where privacy problems show up), and the fair-coin
binomial tail of the black-box test, a closed form over ln n! and
`math.lgamma`.
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


# The reference CDF of the Anderson-Darling batteries.

def laplace_cdf(scale: float):
    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))

    return cdf
