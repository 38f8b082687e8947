"""Data access layer: exact transforms and aggregations over tables.

Every operation propagates bounds, stability and sensitivity as pure
functions of input metadata, and computes its rows with numpy over whole
columns.  Limit, OrderBy, Skip and Window are rejected outright; Bernoulli
sampling is the sanctioned replacement for Limit.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ContractViolation, RejectedOperationError
from .relational import (
    ColumnKind,
    ColumnMeta,
    GroupedTable,
    Schema,
    StatVector,
    Table,
    build_records,
)

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _exact(op: str, c, integral: bool) -> tuple:
    """An (op, constant) pair that numpy compares with an int64 (`integral`)
    or float64 column exactly as Python compares `x op c`.  numpy rounds
    int64 against a float, and a float64 against a large int, through
    float64, so a c strictly between two values of the column's type,
    lo < c < above, is replaced by one of them."""
    if integral:
        lo = math.floor(c)
    else:  # the largest float64 <= c
        lo = float(min(max(c, -sys.float_info.max), sys.float_info.max))
        lo = lo if lo <= c else math.nextafter(lo, -math.inf)
    if lo == c:
        return op, lo
    above = lo + 1 if integral else math.nextafter(lo, math.inf)
    # No value equals c: -inf makes "==" match nothing and "!=" everything.
    return {"<": ("<=", lo), "<=": ("<=", lo), ">": (">=", above), ">=": (">=", above),
            "==": ("<", -math.inf), "!=": (">", -math.inf)}[op]


@dataclass(frozen=True)
class Comparison:
    """One column-vs-constant comparison, evaluated over a whole column."""

    column: str
    op: str
    constant: object

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ContractViolation(f"unknown comparison operator {self.op!r}")

    def mask(self, t: Table) -> np.ndarray:
        """Which rows satisfy the comparison, exactly as Python compares: a
        categorical once per domain value, a number through `_exact`."""
        col, a = t.schema.column(self.column), t.array[self.column]
        if col.kind is ColumnKind.CATEGORICAL:
            return np.array([_OPS[self.op](v, self.constant) for v in col.values], dtype=bool)[a]
        op, c = _exact(self.op, self.constant, col.kind is ColumnKind.INTEGER)
        return _OPS[op](a, c)

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
        if not col.is_numeric or self.op == "!=":  # != refines nothing
            return None
        c = self.constant
        if col.kind is ColumnKind.INTEGER:  # the nearest integer inside the bound
            c = {"<": math.ceil(c) - 1, "<=": math.floor(c),
                 ">": math.floor(c) + 1, ">=": math.ceil(c)}.get(self.op, c)
        return {"<": (col.lower, c), "<=": (col.lower, c), ">": (c, col.upper),
                ">=": (c, col.upper), "==": (c, c)}[self.op]


def _refine_column(col: ColumnMeta, pred: tuple[Comparison, ...]) -> ColumnMeta:
    lower, upper = col.lower, col.upper
    for comp in pred:
        implied = comp.implied_bounds(col) if comp.column == col.name else None
        if implied is not None:
            lower, upper = max(lower, implied[0]), min(upper, implied[1])
    if lower > upper:
        # The comparisons are unsatisfiable on the declared domain; collapse to a
        # single-point domain so the metadata stays well-formed.
        lower = upper = col.lower
    if (lower, upper) == (col.lower, col.upper):
        return col
    return replace(col, lower=lower, upper=upper)


def select_where(t: Table, pred: tuple[Comparison, ...]) -> Table:
    """Row filter: a row stays when every comparison in `pred` holds.
    1-stable; output bounds refined by the comparisons."""
    for comp in pred:
        comp.check_kind(t.schema.column(comp.column))  # or UnknownColumnError
    new_cols = tuple(
        _refine_column(c, pred) if c.is_numeric else c for c in t.schema.columns
    )
    keep = np.ones(len(t), dtype=bool)
    for comp in pred:
        keep &= comp.mask(t)
    # compress copies packed records many times faster than a boolean index
    return Table(Schema(new_cols), np.compress(keep, t.array), t.stability)


def project(t: Table, columns: Sequence[str]) -> Table:
    """Column projection; 1-stable; drops metadata of removed columns."""
    schema = Schema(tuple(t.schema.column(name) for name in columns))
    return Table(schema, build_records(schema, [t.array[n] for n in columns]), t.stability)


def _ranks(t: Table, col: ColumnMeta) -> np.ndarray:
    """A column's values as numbers that sort as the values do: a
    categorical code becomes the rank of its value in the sorted domain."""
    a = t.array[col.name]
    if col.kind is not ColumnKind.CATEGORICAL:
        return a
    return np.argsort(sorted(range(len(col.values)), key=col.values.__getitem__))[a]


def distinct(t: Table, columns: Sequence[str]) -> Table:
    """Deduplicate on the named key columns; 1-stable.

    Only the key columns survive (the stability-2 variant that drags other
    columns along is not offered).  The multiset of output keys is fully
    determined by the set of input keys, so the canonical representative is
    the key itself.  Keys come out sorted as their values sort.
    """
    ranks = [_ranks(t, t.schema.column(name)) for name in columns]
    order = np.lexsort(ranks[::-1])  # np.unique on records is 30x slower
    first = np.arange(len(t)) == 0
    for r in ranks:  # keep each key that differs from the one before it
        r = r[order]
        first[1:] |= r[1:] != r[:-1]
    return project(Table(t.schema, np.take(t.array, order[first]), t.stability), columns)


def _hull_column(a: ColumnMeta, b: ColumnMeta) -> ColumnMeta:
    if a.name != b.name or a.kind != b.kind:
        raise ContractViolation("schema mismatch")
    if a.kind is ColumnKind.CATEGORICAL:
        merged = tuple(dict.fromkeys(a.values + b.values))
        return replace(a, values=merged)
    return replace(a, lower=min(a.lower, b.lower), upper=max(a.upper, b.upper))


def _recoded(t: Table, schema: Schema) -> np.ndarray:
    """t's records in the dtype of `schema`, whose categorical domains
    extend t's; codes are mapped onto the extended domains."""
    return build_records(schema, [
        np.array([new.values.index(v) for v in old.values])[t.array[old.name]]
        if new.kind is ColumnKind.CATEGORICAL else t.array[old.name]
        for old, new in zip(t.schema.columns, schema.columns)])


def union(a: Table, b: Table) -> Table:
    """Multiset union; stability adds; bounds are the per-column hull."""
    if len(a.schema) != len(b.schema):
        raise ContractViolation("schema mismatch")
    schema = Schema(tuple(_hull_column(ca, cb)
                          for ca, cb in zip(a.schema.columns, b.schema.columns)))
    array = np.concatenate([_recoded(a, schema), _recoded(b, schema)])
    return Table(schema, array, a.stability + b.stability)


def group_by(t: Table, keys: Sequence[str]) -> GroupedTable:
    """Group onto the full key-domain cross-product; stability doubles.

    Every element of the declared key domain gets a group, including keys
    with no matching rows, so the group set is data-independent.  A row's
    cell is the mixed-radix number of its key's ranks in the sorted domains.
    """
    key_cols = tuple(t.schema.column(k) for k in keys)
    # A real key has no finite domain: `domain` refuses it.  The product of
    # sorted domains is in sorted order.
    domains = [sorted(c.domain()) for c in key_cols]
    cells = np.zeros(len(t), dtype=np.int64)
    for col, domain in zip(key_cols, domains):
        cells = cells * len(domain) + _ranks(t, col) - (domain[0] if col.is_numeric else 0)
    labels = map("/".join, itertools.product(*(list(map(str, d)) for d in domains)))
    return GroupedTable(t, tuple(labels), cells, 2 * t.stability)


def bernoulli_sample(t: Table, p: float, rng) -> Table:
    """Keep each row independently with probability p (exactly p for a
    float p >= 2^-1022: see `RandomSource.uniform_full`).

    The tracked stability factor is unchanged (randomized-stability
    semantics, see README); this is the sanctioned replacement for Limit.
    """
    if not (0.0 <= p <= 1.0):
        raise ContractViolation("sampling probability must be in [0, 1]")
    return Table(t.schema, np.compress(rng.uniform_full(len(t)) < p, t.array), t.stability)


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
    cols = list(t.schema.columns)
    cols[i] = ColumnMeta(col.name, kind, lower=lo, upper=hi)
    schema = Schema(tuple(cols))
    # An int64 result stays exact; clamping to the image bounds is clamping.
    x = t.array[column] if integral else t.array[column].astype(np.float64)
    columns = [t.array[name] for name in schema.names]
    columns[i] = np.clip(x, lo, hi) if isinstance(f, Clamp) else f(x)
    return Table(schema, build_records(schema, columns), t.stability)


def _fsum(values: list) -> float:
    """The sum rounded once.  `math.fsum` also raises on some finite sums of
    huge terms; those are summed as fractions, and a sum past the largest
    float rounds to an infinity."""
    try:
        return math.fsum(values)
    except OverflowError:
        from fractions import Fraction  # imported only on this rare path
        total = sum(map(Fraction, values))
        if abs(total) < 2**1024 - 2**970:  # the least magnitude that rounds up to inf
            return float(total)
        return math.inf if total > 0 else -math.inf


def aggregate(t: Table | GroupedTable, agg: str, column: str | None = None) -> StatVector:
    """Exact count or bounded sum, with l1_sensitivity from metadata.

    l1_sensitivity = stability factor x per-record influence, where the
    influence is 1 for count and max(|lower|, |upper|) for sum.  Defined on
    empty input (count -> 0, sum -> 0).  Counts and sums of integer columns
    are marked integral, sums of real columns are not.  Sums are exact and
    rounded once, so they do not depend on row order.
    """
    if agg not in ("count", "sum"):
        raise ContractViolation(f"unknown aggregation {agg!r}")
    if not isinstance(t, GroupedTable):  # one cell, labelled by the aggregation
        label = agg if column is None else f"{agg}({column})"
        t = GroupedTable(t, (label,), np.zeros(len(t), dtype=np.int64), t.stability)
    col = None
    if agg == "sum":
        if column is None:
            raise ContractViolation("sum requires a column")
        col = t.table.schema.column(column)
        if not col.is_numeric:
            raise ContractViolation("sum over a non-numeric column")
        if not (math.isfinite(col.lower) and math.isfinite(col.upper)):
            raise ContractViolation("sum over an unbounded column")
    influence = 1.0 if agg == "count" else max(abs(col.lower), abs(col.upper))
    values = np.bincount(t.cells, minlength=len(t.labels))
    if agg == "sum":  # each cell's values in one list, summed exactly, rounded once
        ends = np.cumsum(values).tolist()
        exact = sum if col.kind is ColumnKind.INTEGER else _fsum
        ordered = t.table.array[column][np.argsort(t.cells, kind="stable")].tolist()
        values = [float(exact(ordered[s:e])) for s, e in zip([0] + ends[:-1], ends)]
    integral = agg == "count" or col.kind is ColumnKind.INTEGER
    return StatVector(np.array(values, dtype=np.float64), t.stability * influence, t.labels,
                      integral)


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
    return (tuple(Comparison(c, op, _parse_literal(k)) for c, op, k in comps),)


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

    def execute(self, t: Table, rng=None, clock=None, xi: float | None = None) -> StatVector:
        """Run the steps on `t`.  With a clock and xi, each `select_where`
        scan is paced: once it returns, the clock advances by xi times the
        rows it read, in one `advance`."""
        for kind, *args in self.steps:
            out = _STEPS[kind][1](t, rng, *args)
            if kind == "select_where" and clock is not None and xi is not None:
                clock.advance(len(t) * xi)
            t = out
        return t


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
