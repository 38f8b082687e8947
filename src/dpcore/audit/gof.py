"""Goodness-of-fit and tail probabilities for the audit.

Anderson-Darling for continuous one-dimensional distributions (it weights
the tails, which is where privacy problems show up), and, for the black-box
test, its fair-coin binomial tails and their exact mean over the Binomial
thinning of its counts: both are row-wise passes over windows of a pmf in
ln n! (`_log_factorial`).
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


#: Cells of one array pass over pmf windows, about.
_CELLS = 1 << 16


def _pmf_windows(lo, hi, log_pmf):
    """Row r's pmf at lo[r], ..., hi[r] - 1, in chunks of rows of about
    _CELLS cells: yields (rows, pmf), each row padded on the right with zero
    pmf to the chunk's widest window, so that a sum along a row is the sum
    over its own window.  `log_pmf(r, y)` gives ln pmf at the flat cells
    (r[i], y[i]) of the windows only."""
    step = max(1, _CELLS // max(int((hi - lo).max(initial=0)), 1))
    for a in range(0, len(lo), step):
        rows = slice(a, a + step)
        y = lo[rows, None] + np.arange(int((hi[rows] - lo[rows]).max()))
        inside = y < hi[rows, None]
        pmf = np.zeros(y.shape)
        pmf[inside] = np.exp(log_pmf(np.repeat(np.arange(a, a + len(y)), hi[rows] - lo[rows]),
                                     y[inside]))
        yield rows, pmf


def half_binomial_tails(s, c2) -> np.ndarray:
    """Row r: P[Bin(s[r, j] + c2[r], 1/2) >= s[r, j]] for the integer matrix
    `s` >= 0 and the integer vector `c2` >= 0.

    At least s heads in s + c2 fair flips means at least s heads before the
    (c2+1)-th tail, so this is P[Y >= s] for the negative binomial
    Y ~ NegBin(c2 + 1, 1/2), whose one pmf serves a whole row.  An s above Y's
    mean c2+1 sums the pmf down from the window's top, any other s takes one
    less the sum up from its bottom.  A row's window is its s's range,
    widened by K = 20 sqrt(c2+1) + 100 only on a side that some sum starts
    from.  Y's log-concave tails put less than 1e-36 of the result outside it.
    """
    s, c2 = np.asarray(s, dtype=np.int64), np.asarray(c2, dtype=np.int64)
    k = (20 * np.sqrt(c2 + 1.0)).astype(np.int64) + 100
    upper = s > (c2 + 1)[:, None]
    lo = np.maximum(s.min(axis=1) - np.where(upper.all(axis=1), 0, k), 0)
    hi = s.max(axis=1) + 1 + np.where(upper.any(axis=1), k, 0)
    log_c2 = np.array([math.lgamma(c + 1.0) for c in c2.tolist()])

    def log_pmf(r, y):
        c = c2[r]
        return (_log_factorial(y + c) - _log_factorial(y) - log_c2[r]
                - (y + c + 1) * math.log(2.0))

    out = np.empty(s.shape)
    for rows, pmf in _pmf_windows(lo, hi, log_pmf):
        above = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
        below = np.cumsum(pmf, axis=1) - pmf
        i = s[rows] - lo[rows, None]
        out[rows] = np.where(upper[rows], np.take_along_axis(above, i, axis=1),
                             1.0 - np.take_along_axis(below, i, axis=1))
    return out


def thinned_tails(n, c2, log_p: float) -> np.ndarray:
    """Row r: E[P[Bin(S + c2[r], 1/2) >= S]] over S ~ Bin(n[r], e^log_p), summed
    over S's pmf window n p +/- (10 sd + 40), sd = sqrt(n p (1 - p)), clipped
    to [0, n], and renormalised.  By Bernstein, P[|S - n p| >= t] <=
    2 exp(-(t^2/2) / (sd^2 + t/3)), and at t = 10 sd + 40, t^2/2 = 50 sd^2 +
    400 sd + 800 >= 50 (sd^2 + t/3): the window leaves out less than 2 e^-50 <
    4e-22 of the law, and, each tail being in [0, 1], the result is off by no more.
    """
    n, c2 = np.asarray(n, dtype=np.int64), np.asarray(c2, dtype=np.int64)
    p, log_q = math.exp(log_p), math.log(-math.expm1(log_p))
    k = 10 * np.sqrt(n * p * (1.0 - p)) + 40
    lo = np.maximum(n * p - k, 0).astype(np.int64)
    hi = np.minimum(n * p + k, n).astype(np.int64) + 1

    def log_pmf(r, y):
        m = n[r]
        return (_log_factorial(m) - _log_factorial(y) - _log_factorial(m - y)
                + y * log_p + (m - y) * log_q)

    out = np.empty(len(n))
    for rows, pmf in _pmf_windows(lo, hi, log_pmf):
        # A padding cell repeats its row's last s, so no tail window widens.
        s = np.minimum(lo[rows, None] + np.arange(pmf.shape[1]), hi[rows, None] - 1)
        out[rows] = (pmf * half_binomial_tails(s, c2[rows])).sum(axis=1) / pmf.sum(axis=1)
    return out


# The reference CDF of the Anderson-Darling batteries.

def laplace_cdf(scale: float):
    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))

    return cdf
