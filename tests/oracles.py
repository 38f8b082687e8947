"""Independent oracles the test suite checks the package against.

Everything here is deliberately written the slow, obvious way, using a
different algorithm (and where possible a different numeric stack) from the
implementation under test.  The last section holds reference code that no
entry point runs: the ledger replay of acceptance criterion 5, the
log-domain exponential-mechanism weights of criterion 6, and the earlier
membership test and stored-value rule that `ColumnMeta.correct` replaced.
"""

from __future__ import annotations

import collections
import itertools
import math

import mpmath
import numpy as np

from dpcore.accounting import PrivacyCharge
from dpcore.audit.gof import _log_factorial
from dpcore.errors import ContractViolation, ParameterError
from dpcore.relational import ColumnKind

mpmath.mp.dps = 50  # 50 significant digits everywhere in this module


def log_add_mp(u: float, v: float) -> float:
    """log(e^u + e^v) at 50-digit precision, reduced back to float64."""
    if u == -math.inf:
        return v
    if v == -math.inf:
        return u
    return float(mpmath.log(mpmath.exp(mpmath.mpf(u)) + mpmath.exp(mpmath.mpf(v))))


def logsumexp_mp(values) -> float:
    total = mpmath.mpf(0)
    for v in values:
        if v != -math.inf:
            total += mpmath.exp(mpmath.mpf(v))
    return float(mpmath.log(total)) if total > 0 else -math.inf


def laplace_cdf_mp(x: float, scale: float) -> float:
    x = mpmath.mpf(x) / mpmath.mpf(scale)
    if x < 0:
        return float(mpmath.exp(x) / 2)
    return float(1 - mpmath.exp(-x) / 2)


def two_sided_geometric_pmf(alpha: float, support) -> np.ndarray:
    """Exact masses P(k) = (1-alpha)/(1+alpha) * alpha^|k| on the given support."""
    k = np.asarray(support, dtype=np.int64)
    return (1.0 - alpha) / (1.0 + alpha) * alpha ** np.abs(k)


def interval_image(f, lo: float, hi: float, steps: int = 2001) -> tuple[float, float]:
    """Empirical image of f over [lo, hi] on a dense grid (monotone pieces
    assumed short relative to the grid)."""
    xs = np.linspace(lo, hi, steps)
    ys = np.asarray([f(x) for x in xs], dtype=np.float64)
    return float(ys.min()), float(ys.max())


def max_column_l1(Q, alphas) -> float:
    """Largest column L1 norm of diag(1/alpha) @ Q, computed entry by entry."""
    Q = np.asarray(Q, dtype=np.float64)
    best = 0.0
    for j in range(Q.shape[1]):
        col = 0.0
        for i in range(Q.shape[0]):
            col += abs(Q[i, j]) / alphas[i]
        best = max(best, col)
    return best


def linear_query_epsilon(Q, alphas) -> float:
    """Exact epsilon of answering linear queries Q with Laplace scales alphas.

    With D = diag(1/alpha_i), the release is eps-DP for eps equal to the
    largest column L1 norm of D Q, and for no smaller value.  This is the
    independent oracle the accountant is validated against.
    """
    Q = np.asarray(Q, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    if Q.ndim != 2 or alphas.ndim != 1 or Q.shape[0] != alphas.shape[0]:
        raise ContractViolation("rows(Q) must equal len(alphas)")
    if np.any(alphas <= 0):
        raise ParameterError("all Laplace scales must be positive")
    scaled = np.abs(Q) / alphas[:, None]
    return float(np.max(np.sum(scaled, axis=0))) if Q.size else 0.0


def verify_accounting(claimed_epsilon: float, Q, alphas) -> bool:
    """Pass iff the accountant's claimed epsilon dominates the exact value."""
    return claimed_epsilon >= linear_query_epsilon(Q, alphas)


def binom_sf_mp(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) >= k] at high precision."""
    p = mpmath.mpf(p)
    total = mpmath.mpf(0)
    for i in range(k, n + 1):
        total += mpmath.binomial(n, i) * p**i * (1 - p) ** (n - i)
    return float(total)


def half_binomial_tail_two_sided(s, c2: int) -> np.ndarray:
    """`gof.half_binomial_tail` with its pmf window widened by K on both sides
    of s's range whatever the s: each returned value must match it bit for bit."""
    s = np.asarray(s, dtype=np.int64)
    k = int(20 * math.sqrt(c2 + 1)) + 100
    lo = max(int(s.min()) - k, 0)
    hi = int(s.max()) + k + 1
    y = np.arange(lo, hi)
    log_pmf = (_log_factorial(y + c2) - _log_factorial(y) - math.lgamma(c2 + 1.0)
               - (y + c2 + 1) * math.log(2.0))
    pmf = np.exp(log_pmf)
    above = np.cumsum(pmf[::-1])[::-1]
    below = np.cumsum(pmf) - pmf
    i = s - lo
    return np.where(s > c2 + 1, above[i], 1.0 - below[i])


def multiset_distance(rows_a, rows_b) -> int:
    ca, cb = collections.Counter(rows_a), collections.Counter(rows_b)
    return sum(abs(ca[r] - cb[r]) for r in set(ca) | set(cb))


def all_multisets(pool, max_rows: int):
    """Every multiset over `pool` with at most max_rows elements."""
    out = []
    for n in range(max_rows + 1):
        out.extend(collections.Counter(c) for c in
                   itertools.combinations_with_replacement(pool, n))
    return out


def laplace_sample_variance_target(sensitivity: float, eps: float) -> float:
    return 2.0 * (sensitivity / eps) ** 2


def anderson_darling_reference(sample, cdf) -> float:
    """Textbook A-squared, straight from the order-statistic formula."""
    y = np.sort(np.asarray(sample, dtype=np.float64))
    n = len(y)
    f = np.clip(np.asarray([cdf(v) for v in y]), 1e-300, 1 - 1e-16)
    i = np.arange(1, n + 1)
    s = np.sum((2 * i - 1) * (np.log(f) + np.log1p(-f[::-1])))
    return float(-n - s / n)


def event_search_reference(out1, out2, eps: float) -> tuple[float, float]:
    """`(lo, hi)` of the event `blackbox.event_search` must pick from
    these two sample sets, found by listing every candidate interval and
    scoring it with scalar searches, one candidate at a time."""
    out1, out2 = np.sort(out1), np.sort(out2)
    n_search = len(out1)
    pooled = np.concatenate([out1, out2])
    if np.all(pooled == pooled[0]):
        return float(pooled[0]), float(pooled[0])
    qs = np.unique(np.quantile(pooled, np.linspace(0.0, 1.0, 101)))
    candidates = []
    for i in range(len(qs)):
        candidates.append((-math.inf, float(qs[i])))
        candidates.append((float(qs[i]), math.inf))
        for j in range(i, len(qs)):
            candidates.append((float(qs[i]), float(qs[j])))
    min_count = 0.001 * n_search * math.exp(eps)
    e_eps = math.exp(eps)
    best = None
    for lo, hi in candidates:
        c1 = int(np.searchsorted(out1, hi, side="right") - np.searchsorted(out1, lo, side="left"))
        c2 = int(np.searchsorted(out2, hi, side="right") - np.searchsorted(out2, lo, side="left"))
        if max(c1, c2) < min_count:
            continue
        score_fwd = c1 / (e_eps * (c2 + 1.0))
        score_rev = c2 / (e_eps * (c1 + 1.0))
        score = max(score_fwd, score_rev)
        if best is None or score > best[0]:
            best = (score, (lo, hi))
    if best is None:
        return -math.inf, math.inf
    return best[1]


def parse_csv_rows(path: str, schema) -> list[tuple]:
    """The cells of a CSV typed one at a time by their column's kind
    (`int`, `float`, or the text itself), before any schema correction."""
    import csv

    parsers = {"int": int, "real": float, "cat": str}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))[1:]
    return [tuple(parsers[c.kind.value](cell) for c, cell in zip(schema.columns, r))
            for r in records]


def _comparison_holds(value, op: str, constant) -> bool:
    return {"<": value < constant, "<=": value <= constant, ">": value > constant,
            ">=": value >= constant, "==": value == constant, "!=": value != constant}[op]


def _domain(col) -> list:
    if col.kind.value == "cat":
        return list(col.values)
    return list(range(int(col.lower), int(col.upper) + 1))


def reference_step(kind: str, args: tuple, schema_in, schema_out, rows, rng, stability: int):
    """One plan step computed row by row on Python values, the slow obvious
    way: comparisons are Python's, `distinct` is `sorted(set(...))`, groups
    are a dict over the sorted key cross-product and sums are exact
    `Fraction` sums rounded once.  Values are typed by `schema_out`'s kinds.

    `rows` is a tuple of row tuples, or for an aggregation the output of the
    group_by step before it: a dict of key -> rows.  Returns the step's rows
    (a dict of groups after group_by), or for an aggregation
    `(values, labels, l1_sensitivity, integral)`.
    """
    from fractions import Fraction

    names = [c.name for c in schema_in.columns]
    if kind == "select_where":
        (pred,) = args
        return tuple(r for r in rows if all(
            _comparison_holds(r[names.index(c.column)], c.op, c.constant)
            for c in pred))
    if kind == "project":
        return tuple(tuple(r[names.index(n)] for n in args[0]) for r in rows)
    if kind == "distinct":
        return tuple(sorted(set(tuple(r[names.index(n)] for n in args[0]) for r in rows)))
    if kind == "self_union":
        return tuple(rows) + tuple(rows)
    if kind == "bernoulli_sample":
        if not rows:
            return tuple(rows)
        keep = rng.uniform_full(len(rows)) < args[0]
        return tuple(r for r, k in zip(rows, keep) if k)
    if kind == "map_column":
        i, f = names.index(args[0]), args[1]
        cast = int if schema_out.columns[i].kind.value == "int" else float
        return tuple(tuple(cast(f(v)) if j == i else v for j, v in enumerate(r)) for r in rows)
    if kind == "group_by":
        idx = [names.index(k) for k in args[0]]
        keys = sorted(itertools.product(*(_domain(schema_in.columns[i]) for i in idx)))
        groups = {key: [] for key in keys}
        for r in rows:
            groups[tuple(r[i] for i in idx)].append(r)
        return groups
    # An aggregation: count, or sum over args[0].
    groups = rows if isinstance(rows, dict) else {None: rows}
    if kind == "count":
        values = [float(len(g)) for g in groups.values()]
        influence, integral = 1, True
    else:
        i = names.index(args[0])
        col = schema_in.columns[i]
        values = [float(sum((Fraction(r[i]) for r in g), Fraction(0))) for g in groups.values()]
        influence, integral = max(abs(col.lower), abs(col.upper)), col.kind.value == "int"
    if isinstance(rows, dict):
        labels = tuple("/".join(str(p) for p in k) for k in groups)
    else:
        labels = (kind if not args else f"{kind}({args[0]})",)
    return values, labels, stability * influence, integral


# ---------------------------------------------------------------------------
# Reference code that no entry point runs.
# ---------------------------------------------------------------------------

def contains(col, value) -> bool:
    """Whether `value` is in `col`'s declared domain as it is: no `bool`, and
    no fractional, NaN or infinite float on an `int` column."""
    if col.kind is ColumnKind.CATEGORICAL:
        return value in col.values
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    if col.kind is ColumnKind.INTEGER and isinstance(value, float) \
            and not value.is_integer():  # NaN and infinities too
        return False
    return col.lower <= value <= col.upper


def stored_column_reference(col, values) -> list:
    """One column's values corrected into its declared domain, as stored,
    by the rule `make_table` used before `correct` was its only one: a value
    `contains` accepts is kept as it is, any other is `correct`ed, and a
    categorical outside the domain gets code 0."""
    if col.kind is ColumnKind.CATEGORICAL:
        code = {v: i for i, v in enumerate(col.values)}
        stored = [code.get(v, -1) for v in values]
        bad = [i for i, c in enumerate(stored) if c < 0]
    else:
        # The type test skips `contains` for the common in-bounds cell.
        fast = (int,) if col.kind is ColumnKind.INTEGER else (int, float)
        lo, hi = col.lower, col.upper
        stored = list(values)
        bad = [i for i, v in enumerate(stored)
               if not (type(v) in fast and lo <= v <= hi or contains(col, v))]
    for i in bad:
        stored[i] = 0 if col.kind is ColumnKind.CATEGORICAL else col.correct(values[i])
    return stored


def replay_spent(ledger: list[PrivacyCharge]) -> dict[str, float]:
    """Recompute per-scope spend by summing the ledger in order.

    Uses the same left-to-right float addition as the live accountant, so a
    faithful ledger reproduces `spent` exactly, not just approximately.
    """
    totals: dict[str, float] = {}
    for rec in ledger:
        totals[rec.scope_id] = totals.get(rec.scope_id, 0.0) + rec.amount
    return totals


def log_add(x: float, y: float) -> float:
    """log(a + b) given x = log a and y = log b, without leaving log scale.

    -inf is a valid input (a = 0) and acts as the additive identity; finite
    inputs never overflow.
    """
    if x == -math.inf:
        return y
    if y == -math.inf:
        return x
    z, v = (x, y) if x >= y else (y, x)
    return z + math.log1p(math.exp(v - z))


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
