"""Checks of dpcore's outputs, computed without dpcore.

Exact answers come from the generator's own rows with the documented
clamp-to-domain correction; sensitivities follow the paper's rule
(stability x per-record influence, group_by doubling the stability).
Nothing here imports dpcore.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from gen import SCHEMA

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
_COL = {name: i for i, (name, _, _) in enumerate(SCHEMA)}

#: Per-value false-alarm probability of the Laplace tail bound.
TAIL_DELTA = 1e-12
#: Two-sided limit on the Wilson-Hilferty score of the noise-scale check.
SCALE_Z = 5.5
#: Upper limit on an Anderson-Darling statistic at the correct scale; the
#: asymptotic null puts 2e-8 of its mass above it.
AD_ACCEPT = 12.0
#: The 99% asymptotic critical value; a 5% wrong scale must exceed it.
AD_CRITICAL_99 = 3.8781250216053948842


def correct_cell(kind: str, dom, v):
    """dpcore's documented correction: clamp numbers, map unknown
    categories to the first declared value."""
    if kind == "cat":
        return v if v in dom else dom[0]
    lo, hi = dom
    if kind == "int":
        v = int(round(v))
    return min(max(v, lo), hi)


def correct_rows(rows) -> list[tuple]:
    return [tuple(correct_cell(k, d, v) for (_, k, d), v in zip(SCHEMA, r)) for r in rows]


def _domain(col: str):
    _, kind, dom = SCHEMA[_COL[col]]
    return tuple(range(dom[0], dom[1] + 1)) if kind == "int" else dom


def exact(plan: dict, rows) -> dict:
    """Exact answer of one plan on corrected rows.

    Returns values (None when a bernoulli_sample step makes the exact
    answer random), labels, the l1 sensitivity and, for sampled plans,
    the pre-sample row count.
    """
    rows = list(rows)
    for col, op, const in plan.get("where", ()):
        i = _COL[col]
        rows = [r for r in rows if _OPS[op](r[i], const)]
    influence = 1.0
    agg = plan["agg"]
    if agg.startswith("sum:"):
        col = agg.split(":", 1)[1]
        assert all(c != col for c, _, _ in plan.get("where", ())), \
            "predicates must not refine the summed column"
        lo, hi = SCHEMA[_COL[col]][2]
        if plan.get("clamp"):
            ccol, clo, chi = plan["clamp"]
            i = _COL[ccol]
            rows = [r[:i] + (min(max(r[i], clo), chi),) + r[i + 1:] for r in rows]
            if ccol == col:
                lo, hi = min(max(lo, clo), chi), min(max(hi, clo), chi)
        influence = max(abs(lo), abs(hi))
    stability = 2 if plan.get("group") else 1
    out = {"sensitivity": stability * influence}
    if plan.get("distinct"):
        idx = [_COL[c] for c in plan["distinct"]]
        rows = sorted({tuple(r[i] for i in idx) for r in rows})
    if plan.get("sample") is not None:
        out.update(values=None, labels=["count"], rows_before_sample=len(rows))
        return out

    def value(rs):
        if agg == "count":
            return float(len(rs))
        i = _COL[agg.split(":", 1)[1]]
        return math.fsum(r[i] for r in rs)

    label = "count" if agg == "count" else f"sum({agg.split(':', 1)[1]})"
    if plan.get("group"):
        keys = sorted(itertools.product(*(_domain(c) for c in plan["group"])))
        idx = [_COL[c] for c in plan["group"]]
        groups = {k: [] for k in keys}
        for r in rows:
            groups[tuple(r[i] for i in idx)].append(r)
        out["labels"] = ["/".join(str(p) for p in k) for k in keys]
        out["values"] = [value(groups[k]) for k in keys]
    else:
        out["labels"], out["values"] = [label], [value(rows)]
    return out


def tail_bound(scale: float) -> float:
    """|Laplace(scale)| exceeds this with probability TAIL_DELTA."""
    return scale * math.log(1.0 / TAIL_DELTA)


def check_release(plan: dict, ex: dict, values, labels, problems: list, zs: dict) -> None:
    """Check one released answer against the exact one.

    Appends a description of every violated property to `problems` and the
    standardized noise of every exactly-known, unrounded value to
    zs[mechanism].
    """
    name = plan["name"]
    scale = ex["sensitivity"] / plan["eps"]
    if list(labels) != list(ex["labels"]):
        problems.append(f"{name}: labels differ from the declared key domain")
        return
    if len(values) != len(ex["labels"]):
        problems.append(f"{name}: {len(values)} values for {len(ex['labels'])} labels")
        return
    integral = plan["mechanism"] == "laplace_int"
    if integral and any(v != math.floor(v) for v in values):
        problems.append(f"{name}: laplace_int released a non-integer")
    if ex["values"] is None:
        n = ex["rows_before_sample"]
        p = plan["sample"]
        hoeffding = math.sqrt(n * math.log(2.0 / TAIL_DELTA) / 2.0)
        if abs(values[0] - n * p) > hoeffding + tail_bound(scale):
            problems.append(f"{name}: {values[0]!r} outside the sample+noise bound")
        return
    slack = 0.5 if integral else 0.0
    for v, x in zip(values, ex["values"]):
        if not abs(v - x) <= tail_bound(scale) + slack:
            problems.append(f"{name}: {v!r} is {abs(v - x):.4g} from exact {x!r}"
                            f" (scale {scale:g})")
        elif not integral:
            zs.setdefault(plan["mechanism"], []).append((v - x) / scale)


def scale_score(zs) -> float:
    """Wilson-Hilferty score of sum |z|, which is Gamma(n, 1) when every z
    is standard Laplace noise: 0 when noise has the claimed scale,
    about -3 sqrt(n) when it is missing, +0.78 sqrt(n) when doubled."""
    n = len(zs)
    s = float(np.sum(np.abs(zs)))
    return ((s / n) ** (1.0 / 3.0) - (1.0 - 1.0 / (9.0 * n))) / math.sqrt(1.0 / (9.0 * n))


def check_scale(zs: dict, problems: list, min_n: int = 20) -> None:
    """The noise scale of each mechanism, from zs[mechanism]."""
    for mechanism in ("laplace", "noisy_histogram"):
        values = zs.get(mechanism, [])
        if len(values) < min_n:
            problems.append(f"{mechanism}: only {len(values)} values for the scale check")
            continue
        z = scale_score(values)
        if abs(z) > SCALE_Z:
            problems.append(f"{mechanism}: noise scale check failed, score {z:.2f} "
                            f"over {len(values)} values")


def parse_ledger(path: str, offset: int = 0):
    """Ledger records from byte `offset` on: (scope, amount) pairs, the new
    offset.  Independent of dpcore's own ledger reader."""
    out = []
    with open(path, "rb") as fh:
        fh.seek(offset)
        data = fh.read()
    end = data.rfind(b"\n") + 1
    for line in data[:end].decode("utf-8").splitlines():
        if not line.strip():
            continue
        fields = dict(part.split("=", 1) for part in line.split())
        out.append((fields["scope"], float(fields["amount"])))
    return out, offset + end


class LedgerCheck:
    """Left-to-right spend of one scope, read incrementally from the ledger."""

    def __init__(self, path: str, scope: str, budget: float) -> None:
        self.path, self.scope, self.budget = path, scope, budget
        self.offset = 0
        self.records = 0
        self.spent = 0.0

    def advance(self) -> int:
        """Read new records; returns how many were added."""
        new, self.offset = parse_ledger(self.path, self.offset)
        for scope, amount in new:
            if scope == self.scope:
                self.spent += amount
        self.records += len(new)
        return len(new)

    def check(self, spent, remaining, problems: list, what: str) -> None:
        if spent is not None and spent != self.spent:
            problems.append(f"{what}: spent {spent!r} != ledger sum {self.spent!r}")
        if remaining != self.budget - self.spent:
            problems.append(f"{what}: remaining {remaining!r} != "
                            f"{self.budget - self.spent!r} from the ledger")


def padding_bucket(n_hat: float) -> float:
    """The service's power-of-two padding bucket of the noisy size."""
    return math.ldexp(1.0, math.ceil(math.log2(max(n_hat, 0.0) + 16.0)))


def schedule(n_hat: float, xi: float, overhead: float) -> tuple[float, float]:
    """(first deadline, doubled deadline) of a padded response, seconds."""
    b = padding_bucket(n_hat) * xi
    return b + overhead, 2.0 * b + overhead


def laplace_cdf(x, scale: float):
    return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))


def anderson_darling(samples, scale: float) -> float:
    """A^2 of `samples` against Laplace(0, scale), written out separately
    from dpcore's implementation."""
    y = np.sort(np.asarray(samples, dtype=np.float64))
    n = y.shape[0]
    f = np.clip(laplace_cdf(y, scale), 1e-300, 1.0 - 2.0 ** -53)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(-n - np.sum((2.0 * i - 1.0) / n * (np.log(f) + np.log1p(-f[::-1]))))
