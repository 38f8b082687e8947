"""Data access layer: exact transforms and aggregations over tables.

Every operation propagates bounds, stability and sensitivity as pure
functions of input metadata.  Limit, OrderBy, Skip and Window are rejected
outright; Bernoulli sampling is the sanctioned replacement for Limit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, RejectedOperationError
from .relational import (
    ColumnKind,
    ColumnMeta,
    GroupedTable,
    Schema,
    StatVector,
    Table,
    _cross_product,
)

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class Comparison:
    """One column-vs-constant comparison, evaluable per row in bounded time."""

    column: str
    op: str
    constant: object

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ContractViolation(f"unknown comparison operator {self.op!r}")

    def matches(self, row: tuple, schema: Schema) -> bool:
        return _OPS[self.op](row[schema.index(self.column)], self.constant)

    def check_kind(self, col: ColumnMeta) -> None:
        """Reject a constant that cannot be compared with the column's values:
        a str for categorical columns, a finite int or float for numeric ones.
        Checked from metadata, before any row is read."""
        c = self.constant
        numeric = isinstance(c, (int, float)) and not isinstance(c, bool)
        if numeric != col.is_numeric or (isinstance(c, float) and not math.isfinite(c)):
            raise ContractViolation(f"column {col.name}: constant of the wrong kind")

    def implied_bounds(self, col: ColumnMeta) -> tuple[float, float] | None:
        """Bounds on a numeric column implied by this comparison, or None."""
        if not col.is_numeric or not isinstance(self.constant, (int, float)):
            return None
        c = self.constant
        integral = col.kind is ColumnKind.INTEGER
        if self.op == "<":
            return (col.lower, math.ceil(c) - 1 if integral else c)
        if self.op == "<=":
            return (col.lower, math.floor(c) if integral else c)
        if self.op == ">":
            return (math.floor(c) + 1 if integral else c, col.upper)
        if self.op == ">=":
            return (math.ceil(c) if integral else c, col.upper)
        if self.op == "==":
            return (c, c)
        return None  # != refines nothing


@dataclass(frozen=True)
class Predicate:
    """Conjunction of comparisons.

    `simulated_cost` is an optional per-row cost (in the injected clock's
    units) used by the service layer's timing padding; it has no effect on
    the rows selected here.
    """

    conjuncts: tuple[Comparison, ...]
    simulated_cost: Callable[[tuple], float] | None = None

    def matches(self, row: tuple, schema: Schema) -> bool:
        return all(c.matches(row, schema) for c in self.conjuncts)


def _refine_column(col: ColumnMeta, pred: Predicate) -> ColumnMeta:
    lower, upper = col.lower, col.upper
    for comp in pred.conjuncts:
        if comp.column != col.name:
            continue
        implied = comp.implied_bounds(col)
        if implied is None:
            continue
        lower = max(lower, implied[0])
        upper = min(upper, implied[1])
    if lower > upper:
        # Predicate is unsatisfiable on the declared domain; collapse to a
        # single-point domain so the metadata stays well-formed.
        lower = upper = col.lower
    return replace(col, lower=lower, upper=upper)


def select_where(t: Table, pred: Predicate) -> Table:
    """Row filter; 1-stable; output bounds refined by the predicate."""
    for comp in pred.conjuncts:
        comp.check_kind(t.schema.column(comp.column))  # or UnknownColumnError
    new_cols = tuple(
        _refine_column(c, pred) if c.is_numeric else c for c in t.schema.columns
    )
    rows = tuple(r for r in t.rows if pred.matches(r, t.schema))
    return Table(Schema(new_cols), rows, t.stability)


def project(t: Table, columns: Sequence[str]) -> Table:
    """Column projection; 1-stable; drops metadata of removed columns."""
    idx = [t.schema.index(name) for name in columns]
    schema = Schema(tuple(t.schema.columns[i] for i in idx))
    rows = tuple(tuple(r[i] for i in idx) for r in t.rows)
    return Table(schema, rows, t.stability)


def distinct(t: Table, columns: Sequence[str]) -> Table:
    """Deduplicate on the named key columns; 1-stable.

    Only the key columns survive (the stability-2 variant that drags other
    columns along is not offered).  The multiset of output keys is fully
    determined by the set of input keys, so the canonical representative is
    the key itself.
    """
    keyed = project(t, columns)
    seen = sorted(set(keyed.rows))
    return Table(keyed.schema, tuple(seen), t.stability)


def _hull_column(a: ColumnMeta, b: ColumnMeta) -> ColumnMeta:
    if a.name != b.name or a.kind != b.kind:
        raise ContractViolation("schema mismatch")
    if a.kind is ColumnKind.CATEGORICAL:
        merged = tuple(dict.fromkeys(a.values + b.values))
        return replace(a, values=merged)
    return replace(a, lower=min(a.lower, b.lower), upper=max(a.upper, b.upper))


def union(a: Table, b: Table) -> Table:
    """Multiset union; stability adds; bounds are the per-column hull."""
    if len(a.schema) != len(b.schema):
        raise ContractViolation("schema mismatch")
    cols = tuple(_hull_column(ca, cb) for ca, cb in zip(a.schema.columns, b.schema.columns))
    return Table(Schema(cols), a.rows + b.rows, a.stability.plus(b.stability))


def group_by(t: Table, keys: Sequence[str]) -> GroupedTable:
    """Group onto the full key-domain cross-product; stability doubles.

    Every element of the declared key domain gets a group, including keys
    with no matching rows, so the group set is data-independent.
    """
    key_cols = tuple(t.schema.column(k) for k in keys)
    for col in key_cols:
        if col.kind is ColumnKind.REAL:
            raise ContractViolation(f"column {col.name}: real key has no finite domain")
    idx = [t.schema.index(k) for k in keys]
    groups = {key: [] for key in _cross_product(key_cols)}
    for r in t.rows:
        groups[tuple(r[i] for i in idx)].append(r)
    groups = {k: tuple(v) for k, v in groups.items()}
    return GroupedTable(t.schema, key_cols, groups, t.stability.times(2))


def bernoulli_sample(t: Table, p: float, rng) -> Table:
    """Keep each row independently with probability p.

    The tracked stability factor is unchanged (randomized-stability
    semantics, see README); this is the sanctioned replacement for Limit.
    """
    if not (0.0 <= p <= 1.0):
        raise ContractViolation("sampling probability must be in [0, 1]")
    if not t.rows:
        return t
    keep = rng.uniform(len(t.rows)) < p
    rows = tuple(r for r, k in zip(t.rows, keep) if k)
    return Table(t.schema, rows, t.stability)


@dataclass(frozen=True)
class Clamp:
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ContractViolation("clamp lower > upper")

    def __call__(self, x):
        return min(max(x, self.lower), self.upper)

    def bounds(self, lo: float, hi: float) -> tuple[float, float]:
        return (self(lo), self(hi))


@dataclass(frozen=True)
class Affine:
    a: float
    b: float

    def __call__(self, x):
        return self.a * x + self.b

    def bounds(self, lo: float, hi: float) -> tuple[float, float]:
        e1, e2 = self(lo), self(hi)
        return (min(e1, e2), max(e1, e2))


class Square:
    def __call__(self, x):
        return x * x

    def bounds(self, lo: float, hi: float) -> tuple[float, float]:
        if lo <= 0.0 <= hi:
            return (0.0, max(lo * lo, hi * hi))
        return (min(lo * lo, hi * hi), max(lo * lo, hi * hi))


def map_column(t: Table, column: str, f) -> Table:
    """Apply a whitelisted map to one numeric column.

    Output bounds come from interval arithmetic on declared input bounds;
    stability is unchanged.  Arbitrary functions are rejected: only the
    interval-analyzable forms above are accepted.
    """
    if not isinstance(f, (Clamp, Affine, Square)):
        raise ContractViolation("map_column accepts only clamp/affine/square")
    i = t.schema.index(column)
    col = t.schema.columns[i]
    if not col.is_numeric:
        raise ContractViolation(f"column {column} is not numeric")
    lo, hi = f.bounds(col.lower, col.upper)
    integral = (
        col.kind is ColumnKind.INTEGER
        and float(lo).is_integer()
        and float(hi).is_integer()
        and not isinstance(f, Affine)
    )
    kind = ColumnKind.INTEGER if integral else ColumnKind.REAL
    if kind is ColumnKind.INTEGER:
        lo, hi = int(lo), int(hi)
    new_col = ColumnMeta(col.name, kind, lower=lo, upper=hi)
    cols = list(t.schema.columns)
    cols[i] = new_col
    rows = tuple(
        tuple(f(v) if j == i else v for j, v in enumerate(r)) for r in t.rows
    )
    return Table(Schema(tuple(cols)), rows, t.stability)


def _per_record_influence(agg: str, col: ColumnMeta | None) -> float:
    if agg == "count":
        return 1.0
    assert col is not None
    return max(abs(col.lower), abs(col.upper))


def aggregate(t: Table | GroupedTable, agg: str, column: str | None = None) -> StatVector:
    """Exact count or bounded sum, with l1_sensitivity from metadata.

    l1_sensitivity = stability factor x per-record influence, where the
    influence is 1 for count and max(|lower|, |upper|) for sum.  Defined on
    empty input (count -> 0, sum -> 0).  Counts and sums of integer columns
    are marked integral, sums of real columns are not.
    """
    if agg not in ("count", "sum"):
        raise ContractViolation(f"unknown aggregation {agg!r}")
    schema = t.schema
    col = None
    if agg == "sum":
        if column is None:
            raise ContractViolation("sum requires a column")
        col = schema.column(column)
        if not col.is_numeric:
            raise ContractViolation("sum over a non-numeric column")
        if not (math.isfinite(col.lower) and math.isfinite(col.upper)):
            raise ContractViolation("sum over an unbounded column")
    factor = t.stability.factor
    if factor == math.inf:
        raise ContractViolation("cannot aggregate a table with unbounded stability")
    influence = _per_record_influence(agg, col)

    def _value(rows: tuple) -> float:
        if agg == "count":
            return float(len(rows))
        i = schema.index(column)
        return float(sum(r[i] for r in rows))

    if isinstance(t, GroupedTable):
        keys = t.group_keys
        values = [_value(t.groups[k]) for k in keys]
        labels = tuple("/".join(str(p) for p in k) for k in keys)
    else:
        values = [_value(t.rows)]
        labels = (agg if column is None else f"{agg}({column})",)
    integral = agg == "count" or col.kind is ColumnKind.INTEGER
    return StatVector(np.array(values), factor * influence, labels, integral)


def linear_map(v: StatVector, m) -> StatVector:
    """Matrix postmap on an exact vector; sensitivity scales by the max
    column L1 norm of the matrix.  The output is never marked integral."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != len(v):
        raise ContractViolation("matrix dimensions do not conform")
    norm = float(np.max(np.sum(np.abs(m), axis=0))) if m.size else 0.0
    values = m @ v.values
    labels = tuple(f"lin{i}" for i in range(m.shape[0]))
    return StatVector(values, v.l1_sensitivity * norm, labels, integral=False)


_REJECTED = {
    "limit": (
        "limit is not offered: its stability is min(2k, 2m), which depends on "
        "the data size; use bernoulli_sample instead"
    ),
    "order_by": (
        "order_by is not offered: implicit row order makes downstream "
        "stability untrackable"
    ),
    "skip": "skip is not offered: same stability hazard as limit; use bernoulli_sample",
    "window": "window is not offered: window frames depend on implicit row order",
}


def rejected_operation(name: str):
    """Always fails; documents why the operator is absent."""
    if name not in _REJECTED:
        raise ContractViolation(f"unknown operator {name!r}")
    raise RejectedOperationError(_REJECTED[name])


# ---------------------------------------------------------------------------
# Textual query plans.
#
# One step per line, ending in an aggregation:
#   select_where <col> <op> <const> [and <col> <op> <const> ...]
#   project <col> [<col> ...]
#   distinct <col> [<col> ...]
#   self_union
#   group_by <col> [<col> ...]
#   bernoulli_sample <p>
#   map_column <col> clamp <lo> <hi> | affine <a> <b> | square
#   count | sum <col>
# All constants are data-independent literals.  A grouped table can only be
# aggregated: group_by, when present, is the step right before the
# aggregation.
# ---------------------------------------------------------------------------

def _expect(ok) -> None:
    if not ok:
        raise ContractViolation("malformed plan step")


def _parse_literal(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _number(word: str) -> float:
    try:
        return float(word)
    except ValueError:
        raise ContractViolation("malformed plan step") from None


def _no_words(words):
    _expect(not words)
    return ()


def _one_word(words):
    _expect(len(words) == 1)
    return (words[0],)


def _columns(words):
    _expect(words)
    return (tuple(words),)


def _probability(words):
    return (_number(*_one_word(words)),)


def _predicate(words):
    _expect(len(words) % 4 == 3 and all(w == "and" for w in words[3::4]))
    comps = zip(words[0::4], words[1::4], words[2::4])
    return (Predicate(tuple(Comparison(c, op, _parse_literal(k)) for c, op, k in comps)),)


_MAPS = {"clamp": (Clamp, 2), "affine": (Affine, 2), "square": (Square, 0)}


def _column_map(words):
    _expect(len(words) >= 2 and words[1] in _MAPS)
    make, arity = _MAPS[words[1]]
    _expect(len(words) == 2 + arity)
    return (words[0], make(*(_number(w) for w in words[2:])))


def _bernoulli(t, rng, p):
    if rng is None:
        raise ContractViolation("bernoulli_sample requires a random source")
    return bernoulli_sample(t, p, rng)


#: Plan step -> (parser of the words after its name, executor).  The parser
#: returns the step's arguments; the executor is called as (table, rng, *args).
_STEPS = {
    "select_where": (_predicate, lambda t, rng, pred: select_where(t, pred)),
    "project": (_columns, lambda t, rng, cols: project(t, cols)),
    "distinct": (_columns, lambda t, rng, cols: distinct(t, cols)),
    "self_union": (_no_words, lambda t, rng: union(t, t)),
    "group_by": (_columns, lambda t, rng, keys: group_by(t, keys)),
    "bernoulli_sample": (_probability, _bernoulli),
    "map_column": (_column_map, lambda t, rng, col, f: map_column(t, col, f)),
    "count": (_no_words, lambda t, rng: aggregate(t, "count")),
    "sum": (_one_word, lambda t, rng, col: aggregate(t, "sum", col)),
}
_AGGREGATIONS = ("count", "sum")


@dataclass(frozen=True)
class TransformPlan:
    steps: tuple = ()

    def __post_init__(self) -> None:
        kinds = [s[0] for s in self.steps]
        if not kinds or kinds[-1] not in _AGGREGATIONS:
            raise ContractViolation("plan must end in an aggregation")
        for i, kind in enumerate(kinds[:-1]):
            if kind not in _STEPS or kind in _AGGREGATIONS:
                raise ContractViolation(f"unknown or misplaced plan step {kind!r}")
            if kind == "group_by" and i != len(kinds) - 2:
                raise ContractViolation("a grouped table can only be aggregated")

    def execute(self, t: Table, rng=None) -> StatVector:
        current: Table | GroupedTable = t
        for kind, *args in self.steps:
            current = _STEPS[kind][1](current, rng, *args)
        return current


def parse_plan(text: str) -> TransformPlan:
    steps = []
    for line in text.splitlines():
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        head, words = words[0], words[1:]
        if head in _REJECTED:
            rejected_operation(head)
        if head not in _STEPS:
            raise ContractViolation(f"unknown plan step {head!r}")
        steps.append((head, *_STEPS[head][0](words)))
    return TransformPlan(tuple(steps))
