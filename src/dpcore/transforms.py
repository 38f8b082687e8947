"""Data access layer: exact transforms and aggregations over tables.

Each plan step is a metadata rule from its input's `TableMeta` to its
output's, or to the plan's `Claim`, that also returns the row kernel that
computes the output with numpy over whole columns.  Every refusal is raised
by a parser or a rule, before any row is read; a kernel raises nothing.
Limit, OrderBy, Skip and Window are rejected outright; Bernoulli sampling
is the sanctioned replacement for Limit.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ContractViolation, RejectedOperationError
from .relational import (
    ColumnKind,
    ColumnMeta,
    Schema,
    StatVector,
    Table,
    build_records,
)

#: The most cells a `group_by` may build from the schema, whatever the rows.
MAX_GROUP_CELLS = 1 << 20

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class TableMeta:
    """What a plan knows of a table before it reads a row."""

    schema: Schema
    stability: int = 1
    labels: tuple[str, ...] | None = None  # its cells', once grouped


@dataclass(frozen=True)
class Claim:
    """What a plan releases, fixed by the schema alone: its cell labels, L1
    sensitivity and integrality, and the row kernels that compute its
    values from a table's record array."""

    labels: tuple[str, ...]
    l1_sensitivity: float
    integral: bool
    kernels: tuple = field(default=(), compare=False, repr=False)

    def run(self, t: Table, rng=None) -> StatVector:
        rows = t.array
        for kernel in self.kernels:
            rows = kernel(rows, rng)
        return StatVector(rows, self.l1_sensitivity, self.labels, self.integral)


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
    """One column-vs-constant comparison."""

    column: str
    op: str
    constant: object

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ContractViolation(f"unknown comparison operator {self.op!r}")


def select_where(m: TableMeta, pred: tuple[Comparison, ...]):
    """Row filter: a row stays when every comparison in `pred` holds.
    1-stable; numeric bounds refined by the comparisons.  A constant must
    compare with its column's values: a str for a categorical column, a
    finite int or float for a numeric one."""
    cols = [m.schema.column(comp.column) for comp in pred]  # or UnknownColumnError
    bounds = {}
    for comp, col in zip(pred, cols):
        c = comp.constant
        numeric = isinstance(c, (int, float)) and not isinstance(c, bool)
        if numeric != col.is_numeric or (isinstance(c, float) and not math.isfinite(c)):
            raise ContractViolation(f"column {col.name}: constant of the wrong kind")
        if numeric and comp.op != "!=":  # != refines nothing
            if col.kind is ColumnKind.INTEGER:  # the nearest integer inside the bound
                c = {"<": math.ceil(c) - 1, "<=": math.floor(c),
                     ">": math.floor(c) + 1, ">=": math.ceil(c)}.get(comp.op, c)
            lower, upper = bounds.get(col.name, (col.lower, col.upper))
            lo, hi = {"<": (lower, c), "<=": (lower, c), ">": (c, upper), ">=": (c, upper),
                      "==": (c, c)}[comp.op]
            bounds[col.name] = max(lower, lo), min(upper, hi)

    def refined(col: ColumnMeta) -> ColumnMeta:
        lower, upper = bounds.get(col.name, (col.lower, col.upper))
        if lower > upper:  # unsatisfiable: a single point keeps the metadata well-formed
            lower = upper = col.lower
        return col if (lower, upper) == (col.lower, col.upper) \
            else replace(col, lower=lower, upper=upper)

    out = replace(m, schema=Schema(tuple(refined(c) if c.name in bounds else c
                                         for c in m.schema.columns)))

    def rows(a: np.ndarray, rng) -> np.ndarray:
        keep = np.ones(len(a), dtype=bool)
        for comp, col in zip(pred, cols):  # exactly as Python compares
            x, op, c = a[col.name], comp.op, comp.constant
            if col.kind is ColumnKind.CATEGORICAL:  # once per domain value
                keep &= np.array([_OPS[op](v, c) for v in col.values], dtype=bool)[x]
            else:
                op, c = _exact(op, c, col.kind is ColumnKind.INTEGER)
                keep &= _OPS[op](x, c)
        # compress copies packed records many times faster than a boolean index
        return np.compress(keep, a)

    return out, rows


def project(m: TableMeta, columns: Sequence[str]):
    """Column projection; 1-stable; a repeated column is refused."""
    out = replace(m, schema=Schema(tuple(map(m.schema.column, columns))))
    return out, lambda a, rng: build_records(out.schema, [a[n] for n in columns])


def _ranks(col: ColumnMeta, a: np.ndarray) -> np.ndarray:
    """A column's stored values `a` as numbers that sort as the values do: a
    categorical code becomes the rank of its value in the sorted domain."""
    if col.kind is not ColumnKind.CATEGORICAL:
        return a
    return np.argsort(sorted(range(len(col.values)), key=col.values.__getitem__))[a]


def distinct(m: TableMeta, columns: Sequence[str]):
    """Deduplicate on the named key columns; 1-stable.

    Only the key columns survive (the stability-2 variant that drags other
    columns along is not offered).  The multiset of output keys is fully
    determined by the set of input keys, so the canonical representative is
    the key itself.  Keys come out sorted as their values sort.
    """
    out, keys = project(m, columns)

    def rows(a: np.ndarray, rng) -> np.ndarray:
        ranks = [_ranks(col, a[col.name]) for col in out.schema.columns]
        order = np.lexsort(ranks[::-1])  # np.unique on records is 30x slower
        first = np.arange(len(a)) == 0
        for r in ranks:  # keep each key that differs from the one before it
            r = r[order]
            first[1:] |= r[1:] != r[:-1]
        return keys(np.take(a, order[first]), rng)

    return out, rows


def self_union(m: TableMeta):
    """The multiset union of a table with itself; stability doubles."""
    out = replace(m, stability=2 * m.stability)
    return out, lambda a, rng: np.concatenate([a, a])


def group_by(m: TableMeta, keys: Sequence[str]):
    """Group onto the full key-domain cross-product; stability doubles.

    Every key of the declared domains gets a cell, so the cell set is
    data-independent.  A repeated or real key, or more than
    `MAX_GROUP_CELLS` cells, is refused before any domain is enumerated.
    The kernel pairs the table with each row's cell: the mixed-radix number
    of its key's ranks in the sorted domains."""
    cols = Schema(tuple(map(m.schema.column, keys))).columns
    # A real key has no finite domain: `domain` refuses it.
    sizes = [c.upper - c.lower + 1 if c.kind is ColumnKind.INTEGER else len(c.domain())
             for c in cols]
    if math.prod(sizes) > MAX_GROUP_CELLS:
        raise ContractViolation(f"group_by over more than {MAX_GROUP_CELLS} cells")
    domains = [sorted(c.domain()) for c in cols]  # their product is in sorted order
    labels = tuple(map("/".join, itertools.product(*(list(map(str, d)) for d in domains))))
    out = replace(m, stability=2 * m.stability, labels=labels)

    def cells(a: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
        cells = np.zeros(len(a), dtype=np.int64)
        for col, domain in zip(cols, domains):
            cells = cells * len(domain) + _ranks(col, a[col.name]) \
                - (domain[0] if col.is_numeric else 0)
        return a, cells

    return out, cells


def bernoulli_sample(m: TableMeta, p: float):
    """Keep each row independently with probability p (exactly p for a
    float p >= 2^-1022: see `RandomSource.uniform_full`).

    The tracked stability factor is unchanged (randomized-stability
    semantics, see README); this is the sanctioned replacement for Limit.
    """
    if not (0.0 <= p <= 1.0):
        raise ContractViolation("sampling probability must be in [0, 1]")
    return m, lambda a, rng: np.compress(rng.uniform_full(len(a)) < p, a)


@dataclass(frozen=True)
class Clamp:
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:  # a NaN bound too
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


def map_column(m: TableMeta, column: str, f):
    """Apply a whitelisted map to one numeric column.

    Output bounds come from interval arithmetic on declared input bounds;
    stability is unchanged.  Arbitrary functions are rejected: only the
    interval-analyzable forms above are accepted.
    """
    if not isinstance(f, (Clamp, Affine, Square)):
        raise ContractViolation("map_column accepts only clamp/affine/square")
    i = m.schema.index(column)
    col = m.schema.columns[i]
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
    cols = list(m.schema.columns)
    cols[i] = ColumnMeta(col.name, kind, lower=lo, upper=hi)
    out = replace(m, schema=Schema(tuple(cols)))

    def rows(a: np.ndarray, rng) -> np.ndarray:
        # An int64 result stays exact; clamping to the image bounds is clamping.
        x = a[column] if integral else a[column].astype(np.float64)
        columns = [a[name] for name in out.schema.names]
        columns[i] = np.clip(x, lo, hi) if isinstance(f, Clamp) else f(x)
        return build_records(out.schema, columns)

    return out, rows


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


def aggregate(m: TableMeta, agg: str, column: str | None = None):
    """Exact count or bounded sum, with l1_sensitivity from metadata.

    l1_sensitivity = stability factor x per-record influence, where the
    influence is 1 for count and max(|lower|, |upper|) for sum; one that is
    not finite and nonnegative (an unbounded column's) is refused.  Defined
    on empty input (count -> 0, sum -> 0).  Counts and sums of integer
    columns are marked integral, sums of real columns are not.  Sums are
    exact and rounded once, so they do not depend on row order.
    """
    if agg not in ("count", "sum"):
        raise ContractViolation(f"unknown aggregation {agg!r}")
    col = None
    if agg == "sum":
        col = m.schema.column(column)  # or UnknownColumnError, None too
        if not col.is_numeric:
            raise ContractViolation("sum over a non-numeric column")
    influence = 1.0 if agg == "count" else max(abs(col.lower), abs(col.upper))
    sensitivity = m.stability * influence
    if not (math.isfinite(sensitivity) and sensitivity >= 0):
        raise ContractViolation("l1_sensitivity must be finite and nonnegative")
    grouped = m.labels is not None  # else one cell, labelled by the aggregation
    labels = m.labels if grouped else (agg if column is None else f"{agg}({column})",)

    def values(rows, rng) -> list | np.ndarray:
        a, cells = rows if grouped else (rows, np.zeros(len(rows), dtype=np.int64))
        values = np.bincount(cells, minlength=len(labels))
        if agg == "sum":  # each cell's values in one list, summed exactly, rounded once
            ends = np.cumsum(values).tolist()
            exact = sum if col.kind is ColumnKind.INTEGER else _fsum
            ordered = a[column][np.argsort(cells, kind="stable")].tolist()
            values = [float(exact(ordered[s:e])) for s, e in zip([0] + ends[:-1], ends)]
        return values

    return Claim(labels, sensitivity, agg == "count" or col.kind is ColumnKind.INTEGER), values


#: Operators a plan may not name, each with why it is absent.
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


#: Plan step -> (parser of the words after its name, metadata rule).  The
#: parser returns the step's arguments.  The rule, called as (meta, *args),
#: holds every refusal of the step: it returns the output's TableMeta, or an
#: aggregation's Claim, with the row kernel, called as (records, rng), that
#: computes the output's record array (with group_by, and each row's cell;
#: with an aggregation, the values) and raises nothing.
_STEPS = {
    "select_where": (_predicate, select_where),
    "project": (_columns, project),
    "distinct": (_columns, distinct),
    "self_union": (_no_words, self_union),
    "group_by": (_columns, group_by),
    "bernoulli_sample": (_probability, bernoulli_sample),
    "map_column": (_column_map, map_column),
    "count": (_no_words, lambda m: aggregate(m, "count")),
    "sum": (_one_word, lambda m, col: aggregate(m, "sum", col)),
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

    def check(self, schema: Schema, stability: int = 1) -> Claim:
        """The plan's claim on a table of `schema`: each metadata rule runs
        once, and every refusal of the plan is raised here."""
        meta, kernels = TableMeta(schema, stability), []
        for kind, *args in self.steps:
            meta, kernel = _STEPS[kind][1](meta, *args)
            kernels.append(kernel)
        return replace(meta, kernels=tuple(kernels))

    def execute(self, t: Table, rng=None) -> StatVector:
        """Check the plan on `t`'s metadata, then run it on `t`'s rows."""
        if rng is None and any(kind == "bernoulli_sample" for kind, *_ in self.steps):
            raise ContractViolation("bernoulli_sample requires a random source")
        return self.check(t.schema, t.stability).run(t, rng)


def parse_plan(text: str) -> TransformPlan:
    steps = []
    for line in text.splitlines():
        words = line.split()
        if not words or words[0].startswith("#"):
            continue
        head, words = words[0], words[1:]
        if head in _REJECTED:
            raise RejectedOperationError(_REJECTED[head])
        if head not in _STEPS:
            raise ContractViolation(f"unknown plan step {head!r}")
        steps.append((head, *_STEPS[head][0](words)))
    return TransformPlan(tuple(steps))
