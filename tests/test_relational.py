import collections
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpcore.errors import ContractViolation, UnknownColumnError
from dpcore.registry import DatasetRegistry
from dpcore.relational import (
    ColumnKind,
    ColumnMeta,
    Schema,
    Table,
    dev_log,
    load_csv,
    load_schema,
    make_table,
    parse_schema,
    read_csv,
    schema_dtype,
    symmetric_difference,
    table_from_array,
)
from dpcore.transforms import aggregate
from oracles import multiset_distance, parse_csv_rows


# -- column metadata ---------------------------------------------------------

def test_numeric_column_requires_bounds():
    with pytest.raises(ContractViolation):
        ColumnMeta("x", ColumnKind.INTEGER)
    with pytest.raises(ContractViolation):
        ColumnMeta("x", ColumnKind.REAL, lower=3, upper=1)


def test_categorical_column_requires_domain():
    with pytest.raises(ContractViolation):
        ColumnMeta("x", ColumnKind.CATEGORICAL)


def test_categorical_domain_refuses_repeated_values():
    with pytest.raises(ContractViolation, match="repeated"):
        ColumnMeta("x", ColumnKind.CATEGORICAL, values=("a", "b", "a"))


def test_contains_and_correct_numeric():
    col = ColumnMeta("x", ColumnKind.INTEGER, lower=0, upper=10)
    assert col.contains(0) and col.contains(10)
    assert not col.contains(-1) and not col.contains(11)
    assert not col.contains(2.5) and not col.contains("7")
    assert not col.contains(True)  # booleans are not integers here
    assert col.correct(-5) == 0
    assert col.correct(99) == 10
    assert col.correct("junk") == 0  # non-numeric lands on the lower bound
    assert col.correct(3.6) == 4


def test_correct_maps_nan_to_the_lower_bound_and_clamps_infinities():
    real = ColumnMeta("x", ColumnKind.REAL, lower=-1.0, upper=2.0)
    assert not real.contains(math.nan)
    assert real.correct(math.nan) == -1.0
    assert real.correct(math.inf) == 2.0 and real.correct(-math.inf) == -1.0
    whole = ColumnMeta("n", ColumnKind.INTEGER, lower=0, upper=10)
    assert whole.correct(math.nan) == 0
    assert whole.correct(math.inf) == 10 and whole.correct(-math.inf) == 0
    t = make_table(Schema((whole,)), [(math.inf,), (-math.inf,), (math.nan,)])
    assert t.rows == ((10,), (0,), (0,))
    assert all(type(r[0]) is int for r in t.rows)


def test_int_bounds_must_fit_int64():
    ColumnMeta("x", ColumnKind.INTEGER, lower=-2**63, upper=2**63 - 1)
    with pytest.raises(ContractViolation):
        ColumnMeta("x", ColumnKind.INTEGER, lower=0, upper=2**63)
    with pytest.raises(ContractViolation):
        ColumnMeta("x", ColumnKind.INTEGER, lower=-2**63 - 1, upper=0)


def test_correct_categorical_sentinel_is_first_value():
    col = ColumnMeta("x", ColumnKind.CATEGORICAL, values=("a", "b", "c"))
    assert col.correct("b") == "b"
    assert col.correct("zzz") == "a"
    assert col.correct(17) == "a"


def test_domain_enumeration():
    assert ColumnMeta("x", ColumnKind.INTEGER, lower=2, upper=4).domain() == (2, 3, 4)
    assert ColumnMeta("x", ColumnKind.CATEGORICAL, values=("u", "v")).domain() == ("u", "v")
    with pytest.raises(ContractViolation):
        ColumnMeta("x", ColumnKind.REAL, lower=0, upper=1).domain()


def test_schema_rejects_duplicate_names():
    c = ColumnMeta("x", ColumnKind.INTEGER, lower=0, upper=1)
    with pytest.raises(ContractViolation):
        Schema((c, c))


def test_schema_lookup(two_col_schema):
    assert two_col_schema.index("c1") == 1
    assert two_col_schema.column("c0").upper == 100
    with pytest.raises(UnknownColumnError):
        two_col_schema.index("nope")


# -- symmetric difference ----------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=6),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=6))
def test_symmetric_difference_matches_counter_oracle(rows_a, rows_b):
    schema = Schema((
        ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=3),
        ColumnMeta("c1", ColumnKind.INTEGER, lower=0, upper=1),
    ))
    a, b = make_table(schema, rows_a), make_table(schema, rows_b)
    assert symmetric_difference(a, b) == multiset_distance(rows_a, rows_b)


@given(st.lists(st.tuples(st.integers(0, 3)), max_size=5),
       st.lists(st.tuples(st.integers(0, 3)), max_size=5),
       st.lists(st.tuples(st.integers(0, 3)), max_size=5))
def test_symmetric_difference_is_a_metric(ra, rb, rc):
    schema = Schema((ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=3),))
    a, b, c = (make_table(schema, r) for r in (ra, rb, rc))
    dab = symmetric_difference(a, b)
    assert dab == symmetric_difference(b, a)
    assert (dab == 0) == (a.multiset() == b.multiset())
    assert dab <= symmetric_difference(a, c) + symmetric_difference(c, b)


def test_symmetric_difference_schema_mismatch(two_col_schema):
    other = Schema((ColumnMeta("z", ColumnKind.INTEGER, lower=0, upper=1),))
    with pytest.raises(ContractViolation):
        symmetric_difference(make_table(two_col_schema, []), make_table(other, []))


# -- schema enforcement ------------------------------------------------------

def test_make_table_corrects_silently_and_logs(two_col_schema):
    dev_log.drain()
    clean = make_table(two_col_schema, ((-5, 0), (200, 1), (50, 0)))
    assert clean.rows == ((0, 0), (100, 1), (50, 0))
    entries = dev_log.drain()
    assert len(entries) == 2
    assert all("schema correction" in e for e in entries)
    assert dev_log.drain() == []  # drained


@given(st.lists(st.tuples(st.integers(-50, 150), st.integers(-2, 3)), max_size=8))
def test_make_table_is_idempotent_and_total(rows):
    two_col_schema = Schema((
        ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=100),
        ColumnMeta("c1", ColumnKind.INTEGER, lower=0, upper=1),
    ))
    once = make_table(two_col_schema, rows)
    dev_log.drain()
    twice = make_table(two_col_schema, once.rows)
    assert dev_log.drain() == []  # nothing left to correct
    assert once.rows == twice.rows
    assert all(col.contains(v) for row in once.rows
               for col, v in zip(two_col_schema.columns, row))


def test_make_table_rejects_wrong_arity(two_col_schema):
    with pytest.raises(ContractViolation):
        make_table(two_col_schema, [(1, 2, 3)])


# -- sidecar schema files and csv ingestion ----------------------------------

SIDECAR = """\
# demo sidecar
age int 0 100
score real 0.0 1.0
group cat a b c
"""


def test_parse_schema_sidecar_format():
    schema = parse_schema(SIDECAR)
    assert schema.names == ("age", "score", "group")
    assert schema.column("age").kind is ColumnKind.INTEGER
    assert schema.column("score").kind is ColumnKind.REAL
    assert schema.column("group").values == ("a", "b", "c")


def test_parse_schema_rejects_garbage():
    with pytest.raises(ContractViolation):
        parse_schema("x blob 0 1\n")
    with pytest.raises(ContractViolation):
        parse_schema("x int\n")
    with pytest.raises(ContractViolation):
        parse_schema("# nothing here\n")


def test_load_csv_roundtrip(tmp_path):
    (tmp_path / "s.txt").write_text(SIDECAR)
    (tmp_path / "d.csv").write_text(
        "age,score,group\n30,0.5,a\n999,2.0,zzz\n")
    schema = load_schema(str(tmp_path / "s.txt"))
    t = load_csv(str(tmp_path / "d.csv"), schema)
    assert t.rows == ((30, 0.5, "a"), (100, 1.0, "a"))  # corrections applied


def test_load_csv_header_must_match(tmp_path):
    (tmp_path / "s.txt").write_text("age int 0 100\n")
    (tmp_path / "d.csv").write_text("wrong\n30\n")
    schema = load_schema(str(tmp_path / "s.txt"))
    with pytest.raises(ContractViolation):
        load_csv(str(tmp_path / "d.csv"), schema)


def test_load_csv_bad_cell_and_arity(tmp_path):
    (tmp_path / "s.txt").write_text("age int 0 100\n")
    schema = load_schema(str(tmp_path / "s.txt"))
    (tmp_path / "d.csv").write_text("age\nnotanumber\n")
    with pytest.raises(ContractViolation):
        load_csv(str(tmp_path / "d.csv"), schema)
    (tmp_path / "d2.csv").write_text("age\n30,40\n")
    with pytest.raises(ContractViolation):
        load_csv(str(tmp_path / "d2.csv"), schema)


# -- stability factors -------------------------------------------------------

@pytest.mark.parametrize("factor", [-1, math.inf])
def test_a_negative_or_infinite_stability_is_refused_when_aggregated(factor):
    """No plan step makes such a factor; a direct caller who builds one gets
    no release, since the sensitivity it implies is negative or infinite."""
    t = make_table(Schema((ColumnMeta("c", ColumnKind.INTEGER, lower=0, upper=9),)), [(1,)])
    for agg, column in (("count", None), ("sum", "c")):
        with pytest.raises(ContractViolation, match="l1_sensitivity"):
            aggregate(Table(t.schema, t.array, factor), agg, column)


def test_nan_cell_is_corrected_before_any_sum(tmp_path):
    """A `nan` cell would otherwise reach `sum` and make every release NaN,
    whatever the noise: the release would show that such a row exists."""
    (tmp_path / "s.txt").write_text("income real 0.0 200.0\n")
    schema = load_schema(str(tmp_path / "s.txt"))
    (tmp_path / "nan.csv").write_text("income\n10.5\nnan\n")
    (tmp_path / "low.csv").write_text("income\n10.5\n0.0\n")
    with_nan = aggregate(load_csv(str(tmp_path / "nan.csv"), schema), "sum", "income")
    at_lower = aggregate(load_csv(str(tmp_path / "low.csv"), schema), "sum", "income")
    assert np.isfinite(with_nan.values).all()
    assert with_nan.values.tolist() == at_lower.values.tolist() == [10.5]
    assert with_nan == at_lower


# -- the stored record array ---------------------------------------------------

_ROUND_TRIP_SCHEMA = parse_schema("n int -5 5\nx real -1.5 2.0\ng cat a b c\n")

_cells = st.tuples(
    st.one_of(st.integers(-10, 10), st.integers(-2**70, 2**70)),
    st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(-3.0, 3.0)),
    st.sampled_from(["a", "b", "c", "zz", "A", ""]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_cells, max_size=12))
def test_load_csv_matches_the_row_by_row_reference(tmp_path_factory, rows):
    """Column-wise ingest gives the table, the Python types and the
    corrections of parsing each cell and enforcing the schema row by row;
    the stored array loads back to the same table."""
    d = tmp_path_factory.mktemp("csv")
    schema = _ROUND_TRIP_SCHEMA
    with open(d / "d.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.names)
        writer.writerows((n, repr(x), g) for n, x, g in rows)
    dev_log.drain()
    expected = make_table(schema, parse_csv_rows(str(d / "d.csv"), schema))
    reference_log = collections.Counter(dev_log.drain())
    array = read_csv(str(d / "d.csv"), schema)
    assert collections.Counter(dev_log.drain()) == reference_log
    table = table_from_array(schema, array)
    assert table == expected == load_csv(str(d / "d.csv"), schema)
    assert [tuple(map(type, r)) for r in table.rows] == \
        [tuple(map(type, r)) for r in expected.rows]
    np.save(d / "t.npy", array, allow_pickle=False)
    assert table_from_array(schema, np.load(d / "t.npy", allow_pickle=False)) == expected


def _stored(root, schema_text: str, array) -> DatasetRegistry:
    """A registry over one stored dataset, ds1, with the given contents."""
    (root / "ds1").mkdir()
    (root / "ds1" / "schema.txt").write_text(schema_text)
    np.save(root / "ds1" / "table.npy", array, allow_pickle=True)
    return DatasetRegistry(str(root))


SMALL = "age int 0 100\ngroup cat a b c\n"


def _small_array(ages, codes):
    array = np.empty(len(ages), dtype=schema_dtype(parse_schema(SMALL)))
    array["age"], array["group"] = ages, codes
    return array


def test_stored_table_loads_unchanged(tmp_path):
    registry = _stored(tmp_path, SMALL, _small_array([0, 100, 7], [2, 0, 1]))
    assert registry._table("ds1").rows == ((0, "c"), (100, "a"), (7, "b"))


@pytest.mark.parametrize("schema_text, array", [
    # schema.txt edited after ingest: a renamed column, a narrowed bound
    ("years int 0 100\ngroup cat a b c\n", _small_array([1, 2], [0, 1])),
    ("age int 0 10\ngroup cat a b c\n", _small_array([1, 20], [0, 1])),
    # a code outside the categorical domain
    (SMALL, _small_array([1, 2], [0, 3])),
    # a number outside its bounds
    (SMALL, _small_array([1, -1], [0, 1])),
    ("x real 0.0 1.0\n", np.array([(0.5,), (np.nan,)], dtype=[("x", "<f8")])),
    # another dtype or shape
    (SMALL, np.zeros(2, dtype=[("age", "<i4"), ("group", "u1")])),
    (SMALL, _small_array([1, 2], [0, 1]).reshape(2, 1)),
    # an object array, which only pickling could load
    (SMALL, np.array([(1, "a")], dtype=object)),
])
def test_stored_table_is_refused_never_corrected(tmp_path, schema_text, array):
    registry = _stored(tmp_path, schema_text, array)
    with pytest.raises(ContractViolation):
        registry._table("ds1")


def test_registries_on_one_root_claim_distinct_handles(tmp_path):
    """Two processes registering at once each claim their handle's directory
    before either stores a table, so neither takes the other's handle."""
    table = make_table(parse_schema(SMALL), [(1, "a")])
    first, second = DatasetRegistry(str(tmp_path)), DatasetRegistry(str(tmp_path))
    assert first.register(table) != second.register(table)
