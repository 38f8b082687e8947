"""Schemas, tables, grouped tables and statistic vectors.

This is the vocabulary every other layer is written against.  Two rules
dominate the design:

* Metadata (domains, bounds, stability, sensitivity) is declared a priori
  and is a pure function of metadata, never of row values.
* Distance between tables is the multiset symmetric difference; distance
  between statistic vectors is the L1 norm.
"""

from __future__ import annotations

import collections
import csv
import enum
import math
import sys
import threading
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
            object.__setattr__(self, "values", tuple(sys.intern(str(v)) for v in self.values))
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

    def contains(self, value: Value) -> bool:
        if self.kind is ColumnKind.CATEGORICAL:
            return value in self.values
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if self.kind is ColumnKind.INTEGER and isinstance(value, float) \
                and not value.is_integer():  # NaN and infinities too
            return False
        return self.lower <= value <= self.upper

    def correct(self, value: Value) -> Value:
        """Map an arbitrary value into the declared domain.

        Numeric values are clamped, infinities too; NaN and anything
        non-numeric on a numeric column land on the lower bound.  Unknown
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


@dataclass(frozen=True)
class StabilityBound:
    """Bound on output symmetric-difference size per unit input change."""

    factor: float  # nonnegative integer, or math.inf

    def __post_init__(self) -> None:
        if self.factor != math.inf:
            if self.factor < 0 or self.factor != int(self.factor):
                raise ContractViolation("stability factor must be a nonnegative integer or inf")
            object.__setattr__(self, "factor", int(self.factor))

    def times(self, k: float) -> "StabilityBound":
        return StabilityBound(self.factor * k)

    def plus(self, other: "StabilityBound") -> "StabilityBound":
        return StabilityBound(self.factor + other.factor)


@dataclass(frozen=True)
class Table:
    """Multiset of rows plus schema metadata and a tracked stability bound.

    Rows are stored as a tuple but carry no semantic order; all comparisons
    go through multiset semantics.
    """

    schema: Schema
    rows: tuple[Row, ...]
    stability: StabilityBound = StabilityBound(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for r in self.rows:
            if len(r) != len(self.schema):
                raise ContractViolation("row arity does not match schema")

    def __len__(self) -> int:
        return len(self.rows)

    def multiset(self) -> collections.Counter:
        return collections.Counter(self.rows)


@dataclass(frozen=True)
class GroupedTable:
    """One sub-multiset per element of the key domain cross-product.

    The group key set is fixed by metadata: every possible key is present,
    including keys with no matching rows.
    """

    schema: Schema
    key_columns: tuple[ColumnMeta, ...]
    groups: dict
    stability: StabilityBound

    def __post_init__(self) -> None:
        expected = _cross_product(self.key_columns)
        if set(self.groups) != expected:
            raise ContractViolation("group keys must equal the declared domain cross-product")

    @property
    def group_keys(self) -> tuple:
        return tuple(sorted(self.groups))


def _cross_product(key_columns: Sequence[ColumnMeta]) -> set:
    keys = {()}
    for col in key_columns:
        keys = {k + (v,) for k in keys for v in col.domain()}
    return keys


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
        if not (np.isfinite(self.l1_sensitivity) and self.l1_sensitivity >= 0):
            raise ContractViolation("l1_sensitivity must be finite and nonnegative")

    def __len__(self) -> int:
        return int(self.values.shape[0])


class DevLog:
    """In-memory developer-only log of silent data corrections.

    Appends are O(1) onto a deque and never block the query path; the log is
    drained out of band.  Nothing here is ever shown to users.
    """

    def __init__(self) -> None:
        self._entries: collections.deque = collections.deque()
        self._lock = threading.Lock()

    def append(self, message: str) -> None:
        with self._lock:
            self._entries.append(message)

    def drain(self) -> list[str]:
        with self._lock:
            out = list(self._entries)
            self._entries.clear()
        return out

    def __len__(self) -> int:
        return len(self._entries)


dev_log = DevLog()


def symmetric_difference(a: Table, b: Table) -> int:
    """Multiset symmetric-difference cardinality between two tables."""
    if a.schema != b.schema:
        raise ContractViolation("schema mismatch")
    ca, cb = a.multiset(), b.multiset()
    return sum(abs(ca[r] - cb[r]) for r in set(ca) | set(cb))


def enforce_schema(t: Table, log: DevLog | None = None) -> Table:
    """Force every row into its declared domain, silently.

    Out-of-bounds numeric values are clamped, out-of-domain categorical
    values mapped to the declared sentinel.  Each correction goes to the
    developer log only; the user-visible result is indistinguishable from
    the no-violation case.
    """
    log = log if log is not None else dev_log
    out = []
    for r in t.rows:
        fixed = []
        for col, v in zip(t.schema.columns, r):
            if col.contains(v):
                fixed.append(v)
            else:
                corrected = col.correct(v)
                log.append(f"schema correction: column={col.name} -> {corrected!r}")
                fixed.append(corrected)
        out.append(tuple(fixed))
    return Table(t.schema, tuple(out), t.stability)


def make_table(schema: Schema, rows: Iterable[Row]) -> Table:
    """Construct a stability-1 table, enforcing the schema on every row."""
    return enforce_schema(Table(schema, rows, StabilityBound(1)))


# ---------------------------------------------------------------------------
# External interfaces: schema sidecar files and CSV ingestion.
#
# Sidecar format, one column per line:
#   <name> int <lower> <upper>
#   <name> real <lower> <upper>
#   <name> cat <value> [<value> ...]
# Blank lines and lines starting with '#' are ignored.
# ---------------------------------------------------------------------------

def parse_schema(text: str) -> Schema:
    columns = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ContractViolation(f"schema line {lineno}: too few fields")
        name, kind = parts[0], parts[1]
        if kind == "int":
            columns.append(ColumnMeta(name, ColumnKind.INTEGER,
                                      lower=int(parts[2]), upper=int(parts[3])))
        elif kind == "real":
            columns.append(ColumnMeta(name, ColumnKind.REAL,
                                      lower=float(parts[2]), upper=float(parts[3])))
        elif kind == "cat":
            columns.append(ColumnMeta(name, ColumnKind.CATEGORICAL, values=tuple(parts[2:])))
        else:
            raise ContractViolation(f"schema line {lineno}: unknown kind {kind!r}")
    if not columns:
        raise ContractViolation("schema file declares no columns")
    return Schema(tuple(columns))


def load_schema(path: str) -> Schema:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schema(fh.read())


def schema_dtype(schema: Schema) -> np.dtype:
    """Record dtype of a table, from its schema alone: `int` is int64,
    `real` float64 and `cat` the smallest unsigned code into its domain."""
    numeric = {ColumnKind.INTEGER: "<i8", ColumnKind.REAL: "<f8"}
    return np.dtype([(c.name, numeric.get(c.kind) or np.min_scalar_type(len(c.values) - 1))
                     for c in schema.columns])


def table_from_array(schema: Schema, array: np.ndarray) -> Table:
    """The stability-1 table of a record array of `schema_dtype(schema)`.
    Nothing is corrected: another shape or dtype, a code outside its domain
    or a number outside its bounds (NaN too) refuses the whole table."""
    if not isinstance(array, np.ndarray) or array.ndim != 1 \
            or array.dtype != schema_dtype(schema):
        raise ContractViolation("stored table does not match its schema")
    columns = []
    for col in schema.columns:
        a = array[col.name]
        cat = col.kind is ColumnKind.CATEGORICAL
        lo, hi = (0, len(col.values) - 1) if cat else (col.lower, col.upper)
        if not np.all((a >= lo) & (a <= hi)):
            raise ContractViolation(f"stored column {col.name} is outside its domain")
        columns.append((np.array(col.values, dtype=object)[a] if cat else a).tolist())
    return Table(schema, tuple(zip(*columns)), StabilityBound(1))


def _column(col: ColumnMeta, cells: tuple[str, ...]) -> list:
    """One CSV column parsed into its stored values and corrected into its
    declared domain; each correction goes to the developer log."""
    cat = col.kind is ColumnKind.CATEGORICAL
    if cat:
        code = {v: i for i, v in enumerate(col.values)}
        values = [code.get(v, -1) for v in cells]
        lo, hi = 0, len(col.values) - 1
    else:
        parse = int if col.kind is ColumnKind.INTEGER else float
        try:
            values = list(map(parse, cells))
        except ValueError:
            for lineno, cell in enumerate(cells, start=2):
                try:
                    parse(cell)
                except ValueError:
                    raise ContractViolation(
                        f"csv line {lineno}: unparseable numeric cell") from None
        lo, hi = col.lower, col.upper
    for i in [i for i, v in enumerate(values) if not lo <= v <= hi]:
        fixed = col.correct(cells[i] if cat else values[i])
        dev_log.append(f"schema correction: column={col.name} -> {fixed!r}")
        values[i] = code[fixed] if cat else fixed
    return values


def read_csv(path: str, schema: Schema) -> np.ndarray:
    """Ingest a UTF-8 CSV whose header row matches the schema order into a
    schema-corrected record array of `schema_dtype(schema)`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ContractViolation("csv has no header row") from None
        if tuple(header) != schema.names:
            raise ContractViolation("csv header does not match schema")
        records = list(reader)
    for lineno, record in enumerate(records, start=2):
        if len(record) != len(schema):
            raise ContractViolation(f"csv line {lineno}: wrong arity")
    array = np.empty(len(records), dtype=schema_dtype(schema))
    for col, cells in zip(schema.columns, zip(*records)):
        array[col.name] = _column(col, cells)
    return array


def load_csv(path: str, schema: Schema) -> Table:
    """The schema-corrected table of a UTF-8 CSV (see `read_csv`)."""
    return table_from_array(schema, read_csv(path, schema))
