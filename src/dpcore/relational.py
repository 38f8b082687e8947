"""Schemas, tables and statistic vectors.

This is the vocabulary every other layer is written against.  Three rules
dominate the design:

* Metadata (domains, bounds, stability, sensitivity) is declared a priori
  and is a pure function of metadata, never of row values.
* A table has one form, from CSV to aggregate: a numpy record array of
  `schema_dtype(schema)`, with `int` columns as int64, `real` columns as
  float64 and `cat` columns as codes into the declared domain.  `Table.rows`
  is a view for tests and audits only.
* Distance between tables is the multiset symmetric difference; distance
  between statistic vectors is the L1 norm.
"""

from __future__ import annotations

import collections
import csv
import enum
import functools
import io
import itertools
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolation, UnknownColumnError

Row = tuple
Value = object


class ColumnKind(enum.Enum):
    CATEGORICAL = "cat"
    INTEGER = "int"
    REAL = "real"


@dataclass(frozen=True)
class ColumnMeta:
    """Declared domain of one column.

    For numeric kinds `lower`/`upper` are inclusive bounds; for categorical
    columns `values` is the finite, non-empty domain.  None of this is ever
    inferred from data.
    """

    name: str
    kind: ColumnKind
    lower: float | None = None
    upper: float | None = None
    values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is ColumnKind.CATEGORICAL:
            if not self.values:
                raise ContractViolation(f"column {self.name}: empty categorical domain")
            values = tuple(sys.intern(str(v)) for v in self.values)
            if len(set(values)) != len(values):  # one code per value
                raise ContractViolation(f"column {self.name}: repeated categorical value")
            object.__setattr__(self, "values", values)
        else:
            if self.lower is None or self.upper is None:
                raise ContractViolation(f"column {self.name}: numeric bounds required")
            if not (self.lower <= self.upper):
                raise ContractViolation(f"column {self.name}: lower > upper")
            if self.kind is ColumnKind.INTEGER:
                object.__setattr__(self, "lower", int(self.lower))
                object.__setattr__(self, "upper", int(self.upper))
                if not (-2**63 <= self.lower and self.upper < 2**63):
                    raise ContractViolation(f"column {self.name}: int bounds outside int64")

    @property
    def is_numeric(self) -> bool:
        return self.kind is not ColumnKind.CATEGORICAL

    def correct(self, value: Value) -> Value:
        """Map an arbitrary value into the declared domain: the one domain
        rule every stored number passes (`_column`, `_corrected`).

        A value already in the domain is returned as it is.  Numeric values
        are clamped, infinities too; NaN and anything non-numeric on a
        numeric column (a `bool` too) land on the lower bound.  Unknown
        categorical values map to the first declared domain value
        (deterministic sentinel).
        """
        if self.kind is ColumnKind.CATEGORICAL:
            return value if value in self.values else self.values[0]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value != value:
            return self.lower
        v = min(max(value, self.lower), self.upper)
        return int(round(v)) if self.kind is ColumnKind.INTEGER else v

    def domain(self) -> tuple:
        """Finite enumeration of the domain; error for real columns."""
        if self.kind is ColumnKind.CATEGORICAL:
            return self.values
        if self.kind is ColumnKind.INTEGER:
            return tuple(range(int(self.lower), int(self.upper) + 1))
        raise ContractViolation(f"column {self.name}: real column has no finite domain")


@dataclass(frozen=True)
class Schema:
    columns: tuple[ColumnMeta, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ContractViolation("duplicate column names")

    def index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise UnknownColumnError(f"unknown column: {name}")

    def column(self, name: str) -> ColumnMeta:
        return self.columns[self.index(name)]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def __len__(self) -> int:
        return len(self.columns)


@dataclass(frozen=True, eq=False)
class Table:
    """Multiset of rows, held as one record array of `schema_dtype(schema)`,
    plus schema metadata and a tracked stability factor: a bound on the
    output symmetric difference per unit change of the input.  The array's
    order carries no meaning; all comparisons go through multiset semantics.
    """

    schema: Schema
    array: np.ndarray
    stability: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.array, np.ndarray) or self.array.ndim != 1 \
                or self.array.dtype != schema_dtype(self.schema):
            raise ContractViolation("table array does not match its schema")

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        return isinstance(other, Table) and self.schema == other.schema \
            and self.stability == other.stability \
            and np.array_equal(self.array, other.array)

    @functools.cached_property
    def rows(self) -> tuple[Row, ...]:
        """The rows as tuples of Python values, in array order: `int`,
        `float` and the categorical `str`.  Built on first use; no plan step
        reads it."""
        columns = []
        for col in self.schema.columns:
            a = self.array[col.name]
            cat = col.kind is ColumnKind.CATEGORICAL
            columns.append((np.array(col.values, dtype=object)[a] if cat else a).tolist())
        return tuple(zip(*columns))

    def multiset(self) -> collections.Counter:
        return collections.Counter(self.rows)


@dataclass(frozen=True)
class StatVector:
    """Exact aggregate vector with a data-independent L1 sensitivity bound.

    This is the only object the privacy layer consumes.  `integral` says
    whether every value is an integer.  Aggregations set it from metadata,
    never from the values; left as None by a direct caller, it is read off
    the values the caller supplies.
    """

    values: np.ndarray
    l1_sensitivity: float
    dimension_labels: tuple[str, ...]
    integral: bool | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.integral is None:
            object.__setattr__(self, "integral", bool(np.all(arr == np.floor(arr))))
        object.__setattr__(self, "dimension_labels", tuple(self.dimension_labels))
        if len(self.dimension_labels) != arr.shape[0]:
            raise ContractViolation("label count does not match vector dimension")

    def __len__(self) -> int:
        return int(self.values.shape[0])


def symmetric_difference(a: Table, b: Table) -> int:
    """Multiset symmetric-difference cardinality between two tables."""
    if a.schema != b.schema:
        raise ContractViolation("schema mismatch")
    ca, cb = a.multiset(), b.multiset()
    return sum(abs(ca[r] - cb[r]) for r in set(ca) | set(cb))


def make_table(schema: Schema, rows: Iterable[Row]) -> Table:
    """The stability-1 table of `rows`, each value forced into its declared
    domain, silently: out-of-bounds numbers are clamped and out-of-domain
    categorical values mapped to the declared sentinel."""
    rows = [tuple(r) for r in rows]
    if any(len(r) != len(schema) for r in rows):
        raise ContractViolation("row arity does not match schema")
    return Table(schema, build_records(schema, [
        _column(col, [r[i] for r in rows]) for i, col in enumerate(schema.columns)]))


# ---------------------------------------------------------------------------
# External interfaces: schema sidecar files and CSV ingestion.
#
# Sidecar format, one column per line:
#   <name> int <lower> <upper>
#   <name> real <lower> <upper>
#   <name> cat <value> [<value> ...]
# Blank lines and lines starting with '#' are ignored.
# ---------------------------------------------------------------------------

_BOUNDED_KINDS = {"int": (ColumnKind.INTEGER, int), "real": (ColumnKind.REAL, float)}


def parse_schema(text: str) -> Schema:
    columns = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            name, kind, *args = parts
            if kind == "cat":
                columns.append(ColumnMeta(name, ColumnKind.CATEGORICAL, values=tuple(args)))
            elif kind in _BOUNDED_KINDS and len(args) == 2:
                column_kind, parse = _BOUNDED_KINDS[kind]
                columns.append(ColumnMeta(name, column_kind,
                                          lower=parse(args[0]), upper=parse(args[1])))
            else:
                raise ContractViolation(f"not a {kind!r} column of two bounds or a 'cat' column")
        except ContractViolation as exc:
            raise ContractViolation(f"schema line {lineno}: {exc}") from None
        except ValueError:
            raise ContractViolation(f"schema line {lineno}: malformed column") from None
    if not columns:
        raise ContractViolation("schema file declares no columns")
    return Schema(tuple(columns))


def load_schema(path: str) -> Schema:
    """Parse a UTF-8 sidecar; a leading byte-order mark is not part of the
    first column's name."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ContractViolation("schema file is not UTF-8 text") from None
    return parse_schema(text)


def schema_dtype(schema: Schema) -> np.dtype:
    """Record dtype of a table, from its schema alone: `int` is int64,
    `real` float64 and `cat` the smallest unsigned code into its domain."""
    numeric = {ColumnKind.INTEGER: "<i8", ColumnKind.REAL: "<f8"}
    return np.dtype([(c.name, numeric.get(c.kind) or np.min_scalar_type(len(c.values) - 1))
                     for c in schema.columns])


def build_records(schema: Schema, columns: Sequence) -> np.ndarray:
    """The record array of `schema_dtype(schema)` holding one sequence of
    stored values per schema column, in order."""
    array = np.empty(len(columns[0]) if columns else 0, dtype=schema_dtype(schema))
    for name, values in zip(schema.names, columns):
        array[name] = values
    return array


def table_from_array(schema: Schema, array: np.ndarray) -> Table:
    """The stability-1 table of a stored record array of `schema_dtype(schema)`.
    Nothing is corrected: another shape or dtype, a code outside its domain
    or a number outside its bounds (NaN too) refuses the whole table."""
    table = Table(schema, array)  # checks the shape and dtype
    for col in schema.columns:
        a = array[col.name]
        cat = col.kind is ColumnKind.CATEGORICAL
        lo, hi = (0, len(col.values) - 1) if cat else (col.lower, col.upper)
        if not np.all((a >= lo) & (a <= hi)):
            raise ContractViolation(f"stored column {col.name} is outside its domain")
    return table


def _column(col: ColumnMeta, values: Sequence) -> np.ndarray:
    """One column's values as stored: each number as `correct` gives it,
    and categoricals as codes (`_lookup_codes`)."""
    if col.kind is ColumnKind.CATEGORICAL:
        return _lookup_codes(col, values)
    dtype = np.int64 if col.kind is ColumnKind.INTEGER else np.float64
    return np.fromiter(map(col.correct, values), dtype, len(values))


def _lookup_codes(col: ColumnMeta, values: Sequence) -> np.ndarray:
    """A categorical column's values as codes into its domain; any other
    value gets the sentinel code 0, `correct`'s first domain value."""
    code = {v: i for i, v in enumerate(col.values)}
    return np.fromiter(map(code.get, values, itertools.repeat(0)), np.int64, len(values))


def _parsed(col: ColumnMeta, cells: Sequence[str]) -> list:
    """The CSV cells of one column as Python values of its kind."""
    values = []
    try:  # `extend` keeps the cells parsed before a failure
        values.extend(map({ColumnKind.INTEGER: int, ColumnKind.REAL: float}.get(col.kind, str),
                          cells))
    except ValueError:
        raise ContractViolation(f"csv line {len(values) + 2}: unparseable numeric cell") from None
    return values


def _corrected(col: ColumnMeta, a: np.ndarray) -> np.ndarray:
    """A numeric column's parsed values with the ones outside its bounds, NaN
    too, replaced in place by `correct`'s; an in-bounds value keeps its exact
    bits."""
    bad = np.flatnonzero(~((a >= col.lower) & (a <= col.upper)))
    a[bad] = [col.correct(v) for v in a[bad].tolist()]
    return a


def _read_column(col: ColumnMeta, cells: list[str]) -> np.ndarray:
    """One column's CSV cells as stored (see `_column`), parsed straight into
    an array and `_corrected`.  An int past int64 or an unparseable cell
    takes the cell-by-cell path, which clamps the one and reports the other."""
    if col.kind is ColumnKind.CATEGORICAL:
        return _lookup_codes(col, cells)
    integer = col.kind is ColumnKind.INTEGER
    try:
        a = np.fromiter(map(int if integer else float, cells),
                        np.int64 if integer else np.float64, len(cells))
    except (ValueError, OverflowError):
        return _column(col, _parsed(col, cells))
    return _corrected(col, a)


def _codes(col: ColumnMeta, cells: np.ndarray) -> np.ndarray:
    """A categorical column's cells as codes into its domain, found in the
    sorted domain; a cell outside the domain gets the sentinel code 0."""
    domain = np.array(col.values)
    order = np.argsort(domain)
    at = order[np.searchsorted(domain, cells, sorter=order).clip(max=len(order) - 1)]
    return np.where(domain[at] == cells, at, 0)


#: The bytes of a plain CSV: printable ASCII but `"`, and the line feed.
_PLAIN_BYTES = bytes(b for b in range(0x20, 0x7F) if b != ord('"')) + b"\n"


def _read_plain(data: bytes, schema: Schema) -> np.ndarray | None:
    """The records of a plain CSV, parsed by numpy's C reader, or None for
    any other file, which `_read_general` reads.  A plain file holds only
    `_PLAIN_BYTES`, at least one record, no empty line and no line longer
    than `csv` and `int` accept in one field, and its header split on `,` is
    the schema's names.  Each guard keeps out files the two readers read
    apart: numpy reads `"\\x1c5"` as 5 where `int` refuses it (quotes and
    CR are `csv`'s to read), skips an empty line that `csv` counts as a
    record of wrong arity, has neither `csv`'s field-size limit nor `int`'s
    digit limit, and drops a string's trailing NULs, so a domain value
    ending in NUL would match the cell without them.  A string cell is read
    at one more than the longest domain value's width, so a longer cell,
    cut short, still matches none.  A cell numpy cannot read, or a wrong
    arity, also defers, so every error comes from `_read_general`."""
    if data.translate(None, _PLAIN_BYTES) \
            or any(v.endswith("\0") for col in schema.columns for v in col.values):
        return None
    lines = data.decode("ascii").split("\n")
    if not lines[-1]:
        lines.pop()
    limit = min(csv.field_size_limit(), sys.get_int_max_str_digits() or sys.maxsize)
    if len(lines) < 2 or "" in lines or max(map(len, lines)) > limit \
            or tuple(lines[0].split(",")) != schema.names:
        return None
    numeric = {ColumnKind.INTEGER: "<i8", ColumnKind.REAL: "<f8"}
    dtype = np.dtype([(c.name, numeric.get(c.kind) or f"U{max(map(len, c.values)) + 1}")
                      for c in schema.columns])
    try:
        parsed = np.loadtxt(lines[1:], dtype, delimiter=",", comments=None,
                            quotechar=None, ndmin=1)
    except ValueError:
        return None
    return build_records(schema, [
        (_corrected if col.is_numeric else _codes)(col, parsed[col.name])
        for col in schema.columns])


def _read_general(data: bytes, schema: Schema) -> np.ndarray:
    """The records of any CSV, through `csv.reader`: the reference that
    `_read_plain` must match, and the source of every `read_csv` error."""
    width = len(schema)
    cells: list[str] = []
    wrong_arity = None
    lineno = 0  # records read, the header included: `csv line N` counts records
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ContractViolation("csv has no header row")
        if tuple(header) != schema.names:
            raise ContractViolation("csv header does not match schema")
        lineno = 1
        for lineno, record in enumerate(reader, start=2):
            if len(record) == width:
                cells += record
            elif wrong_arity is None:
                wrong_arity = lineno
    except UnicodeDecodeError:
        raise ContractViolation("csv is not UTF-8 text") from None
    except csv.Error as exc:
        raise ContractViolation(f"csv line {lineno + 1}: {exc}") from None
    if wrong_arity is not None:
        raise ContractViolation(f"csv line {wrong_arity}: wrong arity")
    return build_records(schema, [_read_column(col, cells[i::width])
                                  for i, col in enumerate(schema.columns)])


def read_csv(path: str, schema: Schema) -> np.ndarray:
    """Ingest a UTF-8 CSV whose header row matches the schema order into a
    schema-corrected record array of `schema_dtype(schema)`.  A leading
    byte-order mark, as spreadsheet programs write, is dropped.

    A plain file (see `_read_plain`) is parsed by numpy's C reader; any
    other, or one that reader refuses, by `csv.reader` (`_read_general`).
    Both give the same bytes, and every error comes from `csv.reader`'s
    path.  Column by column: no per-row object outlives the read.  Errors
    come in the order the file would show them whole: a reader error
    anywhere (bytes that are not UTF-8, a field over the csv module's
    limit), then the lowest line of wrong arity, then the first column in
    schema order with an unparseable cell, at that cell's line."""
    with open(path, "rb") as fh:
        data = fh.read()
    array = _read_plain(data, schema)
    return _read_general(data, schema) if array is None else array


def load_csv(path: str, schema: Schema) -> Table:
    """The schema-corrected table of a UTF-8 CSV (see `read_csv`)."""
    return Table(schema, read_csv(path, schema))
