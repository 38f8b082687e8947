import csv
import gc
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dpcore import relational
from dpcore.errors import ContractViolation, UnknownColumnError
from dpcore.registry import DatasetRegistry
from dpcore.relational import (
    ColumnKind,
    ColumnMeta,
    Schema,
    Table,
    build_records,
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
from oracles import contains, multiset_distance, parse_csv_rows, stored_column_reference
from steps import apply


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
    assert contains(col, 0) and contains(col, 10)
    assert not contains(col, -1) and not contains(col, 11)
    assert not contains(col, 2.5) and not contains(col, "7")
    assert not contains(col, True)  # booleans are not integers here
    assert col.correct(-5) == 0
    assert col.correct(99) == 10
    assert col.correct("junk") == 0  # non-numeric lands on the lower bound
    assert col.correct(3.6) == 4


def test_correct_maps_nan_to_the_lower_bound_and_clamps_infinities():
    real = ColumnMeta("x", ColumnKind.REAL, lower=-1.0, upper=2.0)
    assert not contains(real, math.nan)
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
    clean = make_table(two_col_schema, ((-5, 0), (200, 1), (50, 0)))
    assert clean.rows == ((0, 0), (100, 1), (50, 0))


@given(st.lists(st.tuples(st.integers(-50, 150), st.integers(-2, 3)), max_size=8))
def test_make_table_is_idempotent_and_total(rows):
    two_col_schema = Schema((
        ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=100),
        ColumnMeta("c1", ColumnKind.INTEGER, lower=0, upper=1),
    ))
    once = make_table(two_col_schema, rows)
    twice = make_table(two_col_schema, once.rows)
    assert once.rows == twice.rows
    assert all(contains(col, v) for row in once.rows
               for col, v in zip(two_col_schema.columns, row))


_ODD_NUMBERS = st.one_of(
    st.integers(),  # past int64 too
    st.integers(-2**70, 2**70),
    st.booleans(),
    st.floats(),  # NaN, infinities and -0.0 among them
    st.integers(-300, 300).map(float),  # integral floats
    st.floats(-300, 300),
    st.floats(-300, 300).map(np.float64),
    st.integers(-300, 300).map(np.int64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 0.5, -0.5, 2.5]),
)
_ODD_VALUES = st.one_of(_ODD_NUMBERS, st.text(max_size=3), st.none(),
                        st.sampled_from(["a", "b", "c", "z", ""]))


@st.composite
def _column_and_values(draw):
    kind = draw(st.sampled_from(ColumnKind))
    if kind is ColumnKind.CATEGORICAL:
        col = ColumnMeta("x", kind, values=draw(st.sampled_from([("a",), ("b", "a", "c")])))
    elif kind is ColumnKind.INTEGER:
        lo = draw(st.sampled_from([-2**63, -100, 0, 3]))
        hi = draw(st.sampled_from([2**63 - 1, 0, 3, 250]).filter(lambda h: h >= lo))
        col = ColumnMeta("x", kind, lower=lo, upper=hi)
    else:
        lo = draw(st.sampled_from([-1e300, -100.5, 0.0, 0, 3]))
        hi = draw(st.sampled_from([1e300, 0.0, 3.25, 250]).filter(lambda h: h >= lo))
        col = ColumnMeta("x", kind, lower=lo, upper=hi)
    return col, draw(st.lists(_ODD_VALUES, max_size=12))


@settings(max_examples=400, deadline=None)
@given(_column_and_values())
@example((ColumnMeta("x", ColumnKind.REAL, lower=0.0, upper=1.0), [-0.0, 0.0, 1.0, 1 / 3]))
@example((ColumnMeta("x", ColumnKind.INTEGER, lower=0, upper=10),
          [2**64, -2**64, True, False, 3.0, -0.0, 2.5, np.int64(4), np.float64(5.0)]))
@example((ColumnMeta("x", ColumnKind.CATEGORICAL, values=("b", "a")),
          ["a", "b", "z", None, 1, 0.0]))
def test_make_table_stores_what_the_earlier_rule_stored(case):
    """`correct` is the one stored-value rule: it returns an in-domain value
    as it is, so `make_table` stores the bytes the earlier rule (keep what
    `contains` accepts, `correct` the rest) stored."""
    col, values = case
    schema = Schema((col,))
    reference = build_records(schema, [stored_column_reference(col, values)])
    assert make_table(schema, [(v,) for v in values]).array.tobytes() == reference.tobytes()


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
            apply(aggregate, Table(t.schema, t.array, factor), agg, column)


def test_nan_cell_is_corrected_before_any_sum(tmp_path):
    """A `nan` cell would otherwise reach `sum` and make every release NaN,
    whatever the noise: the release would show that such a row exists."""
    (tmp_path / "s.txt").write_text("income real 0.0 200.0\n")
    schema = load_schema(str(tmp_path / "s.txt"))
    (tmp_path / "nan.csv").write_text("income\n10.5\nnan\n")
    (tmp_path / "low.csv").write_text("income\n10.5\n0.0\n")
    with_nan = apply(aggregate, load_csv(str(tmp_path / "nan.csv"), schema), "sum", "income")
    at_lower = apply(aggregate, load_csv(str(tmp_path / "low.csv"), schema), "sum", "income")
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
    """Column-wise ingest gives the table and the Python types of parsing
    each cell and enforcing the schema row by row; the stored array loads
    back to the same table."""
    d = tmp_path_factory.mktemp("csv")
    schema = _ROUND_TRIP_SCHEMA
    with open(d / "d.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.names)
        writer.writerows((n, repr(x), g) for n, x, g in rows)
    expected = make_table(schema, parse_csv_rows(str(d / "d.csv"), schema))
    array = read_csv(str(d / "d.csv"), schema)
    table = table_from_array(schema, array)
    assert table == expected == load_csv(str(d / "d.csv"), schema)
    assert array.tobytes() == expected.array.tobytes()  # -0.0 keeps its sign
    assert [tuple(map(type, r)) for r in table.rows] == \
        [tuple(map(type, r)) for r in expected.rows]
    np.save(d / "t.npy", array, allow_pickle=False)
    assert table_from_array(schema, np.load(d / "t.npy", allow_pickle=False)) == expected


_EDGE_SCHEMA = parse_schema("n int -5 5\nx real -1.5 2.0\ng cat a b,c c\n")


@pytest.mark.parametrize("text, columns", [
    # Quoted cells hold commas and line breaks; CRLF ends every record.
    pytest.param('n,x,g\r\n1,-0.0,"b,c"\r\n2,nan,"x\r\ny"\r\n-3,inf,a\r\n4,-inf,"c"\r\n',
                 ([1, 2, -3, 4], [-0.0, -1.5, 2.0, -1.5], [1, 0, 0, 2]), id="quoted-crlf"),
    # Ints past int64 take the cell-by-cell path and clamp; -0.0 and 0.0
    # stay apart in the real column beside them.
    pytest.param("n,x,g\n99999999999999999999,0.0,a\n-99999999999999999999,-0.0,c\n0,1e999,z\n",
                 ([5, -5, 0], [0.0, -0.0, 2.0], [0, 2, 0]), id="past-int64"),
    pytest.param("n,x,g\r\n", ([], [], []), id="header-only"),
    pytest.param("n,x,g", ([], [], []), id="header-only-unterminated"),
])
def test_read_csv_keeps_quoting_line_endings_and_edge_values(tmp_path, text, columns):
    (tmp_path / "d.csv").write_bytes(text.encode("utf-8"))
    array = read_csv(str(tmp_path / "d.csv"), _EDGE_SCHEMA)
    assert array.dtype == schema_dtype(_EDGE_SCHEMA)
    assert array.tobytes() == build_records(_EDGE_SCHEMA, columns).tobytes()


_LONG = "1,0.5,a\n" * 2000  # past the first decoded chunk


@pytest.mark.parametrize("data, message", [
    # A reader error anywhere beats a wrong arity.
    pytest.param(b"n,x,g\n1,0.5\n" + _LONG.encode() + b"2,0.5,\xff\n", "csv is not UTF-8 text",
                 id="not-utf8"),
    pytest.param(b"n,x,g\n1,0.5\n2,0.5,\"a\nb\"\n3,0.5," + b"a" * (2**17 + 1) + b"\n",
                 "csv line 4: field larger than field limit (131072)", id="field-limit"),
    # The lowest wrong arity beats any cell error; a blank line has arity 0.
    # `csv line N` counts records: a quoted line break starts none.
    pytest.param(b"n,x,g\nq,0.5,a\n1,0.5,a,b\n1,0.5\n", "csv line 3: wrong arity",
                 id="arity"),
    pytest.param(b"n,x,g\n1,zz,a\n\n", "csv line 3: wrong arity", id="blank-line"),
    pytest.param(b"n,x,g\n1,0.5,\"a\nb\"\n1,0.5\n", "csv line 3: wrong arity",
                 id="quoted-line-break"),
    # Cell errors come in schema column order, at the first bad cell's line.
    pytest.param(b"n,x,g\n1,zz,a\n2,0.5,a\nq,0.5,a\n", "csv line 4: unparseable numeric cell",
                 id="column-order"),
    pytest.param(b"n,x,g\n99999999999999999999,0.5,a\n1,zz,a\n",
                 "csv line 3: unparseable numeric cell", id="past-int64-then-cell"),
    pytest.param(b"n,x,g\n1,0.5,a\n" + b"1" * 5000 + b",0.5,a\n",
                 "csv line 3: unparseable numeric cell", id="int-digit-limit"),
    pytest.param(b"", "csv has no header row", id="empty"),
    pytest.param(b"n,g,x\n", "csv header does not match schema", id="header"),
])
def test_read_csv_reports_the_first_error_the_whole_file_shows(tmp_path, data, message):
    (tmp_path / "d.csv").write_bytes(data)
    with pytest.raises(ContractViolation) as exc:
        read_csv(str(tmp_path / "d.csv"), _EDGE_SCHEMA)
    assert str(exc.value) == message


def test_a_byte_order_mark_changes_neither_the_schema_nor_the_records(tmp_path):
    """Spreadsheet programs start a UTF-8 file with `EF BB BF`.  A marked CSV
    was refused as `csv header does not match schema`, and a marked sidecar
    put the mark in front of its first column's name; either file, marked or
    not, now gives the same schema and the same record bytes."""
    sidecar = "n int -5 5\nx real -1.5 2.0\ng cat a b,c c\n"
    text = 'n,x,g\r\n1,-0.0,"b,c"\r\n9,nan,a\r\n'
    for name, body in (("s.txt", sidecar), ("d.csv", text)):
        (tmp_path / name).write_bytes(body.encode("utf-8"))
        (tmp_path / ("bom-" + name)).write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    expected = read_csv(str(tmp_path / "d.csv"), _EDGE_SCHEMA)
    for sidecar_name in ("s.txt", "bom-s.txt"):
        schema = load_schema(str(tmp_path / sidecar_name))
        assert schema == _EDGE_SCHEMA
        for csv_name in ("d.csv", "bom-d.csv"):
            array = read_csv(str(tmp_path / csv_name), schema)
            assert array.dtype == expected.dtype
            assert array.tobytes() == expected.tobytes()


def test_reading_a_csv_leaves_no_row_for_the_collector(tmp_path):
    """No per-row object outlives the read, so with collection on 10^5 rows
    run no generation-2 collection (each would walk every live object)."""
    with open(tmp_path / "d.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_EDGE_SCHEMA.names)
        writer.writerows((i % 11 - 5, i / 1e5, ("a", "b,c", "z")[i % 3]) for i in range(10**5))
    enabled = gc.isenabled()
    gc.enable()
    try:
        gc.collect()
        before = gc.get_stats()[2]["collections"]
        array = read_csv(str(tmp_path / "d.csv"), _EDGE_SCHEMA)
        after = gc.get_stats()[2]["collections"]
    finally:
        if not enabled:
            gc.disable()
    assert len(array) == 10**5 and after == before


# -- the plain fast path against csv.reader -------------------------------------

_HOSTILE_SCHEMA = parse_schema("n int -5 5\nx real -1.5 2.0\ng cat a bb c\n")
#: numpy drops a string's trailing NULs, so this domain's `c\0` would match `c`.
_NUL_SCHEMA = parse_schema("n int -5 5\nx real -1.5 2.0\ng cat a bb c\0\n")

#: Cells on which numpy's reader and Python's `int`/`float` or `csv` could
#: part: unicode digits and separators, underscores, padding, int64's edges,
#: a run of digits past `int`'s digit limit, every NaN and infinity
#: spelling, and categoricals longer than any domain value.
_HOSTILE_CELLS = (
    "0", "5", "-5", "+3", " 4", "4 ", "07", "-0", "9", "1_0", "٣", "\x1c5", "5\x1c",
    "5.0", "", "x", "99999999999999999999", "-9223372036854775808",
    "9223372036854775808", "0" * 700 + "1",
    "0.5", "-0.0", "1.25", "-1.5", "2.0", "nan", "-nan", "NaN", "inf", "-Infinity",
    "infinity", "+inf", "1e999", "1e-300", " 1.5", "1.5 ", "1_0.5", ".5", "2.", "1E+0",
    "0x1p0", "٣.5", "nans",
    "a", "bb", "c", "b", "bbb", "bbbb", " a", "a ", "A", "é", "#a", "a\\",
    '"a"', '"b,b"', '"x\ny"', '"', "a\rb",
)

def _column_cells(valid):
    """A column's own cell five times in six, else any hostile cell."""
    hostile = st.one_of(st.sampled_from(_HOSTILE_CELLS),
                        st.text(alphabet="0123456789.-+eE_ nai", max_size=6))
    return st.tuples(st.sampled_from([True] * 5 + [False]), valid, hostile).map(
        lambda t: t[1] if t[0] else t[2])


_hostile_row = st.tuples(
    _column_cells(st.integers(-9, 9).map(str)),
    _column_cells(st.floats(-3.0, 3.0).map(repr)),
    _column_cells(st.sampled_from(["a", "bb", "c", "bbb"])),
).map(",".join)


@st.composite
def _hostile_csv(draw) -> str:
    """Mostly a plain file of the hostile schema, now and then with a
    stray header, arity, line ending or blank line."""
    header = draw(st.sampled_from(["n,x,g"] * 6 + ["n,g,x", "n,x"]))
    ending = draw(st.sampled_from(["\n"] * 6 + ["\r\n"]))
    lines = [header] + draw(st.lists(_hostile_row, max_size=5))
    if lines[1:] and draw(st.integers(0, 9)) == 0:
        lines[-1] += draw(st.sampled_from([",a", ""]))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), "")
    return ending.join(lines) + draw(st.sampled_from([ending, ending, ""]))


def _outcome(read, *args):
    try:
        array = read(*args)
    except ContractViolation as exc:
        return "refused", str(exc)
    return array.dtype, array.tobytes()


@settings(max_examples=300, deadline=None)
@example(text="n,x,g\n" + "0" * 700 + "1,0.5,a\n", field_limit=131072, schema=_HOSTILE_SCHEMA)
@example(text="n,x,g\n1,0.5,a\n2,0." + "5" * 30 + ",a\n", field_limit=20, schema=_HOSTILE_SCHEMA)
@given(text=_hostile_csv(), field_limit=st.sampled_from([20, 131072]),
       schema=st.sampled_from([_HOSTILE_SCHEMA] * 3 + [_NUL_SCHEMA]))
def test_the_plain_reader_defers_or_gives_the_general_readers_bytes(tmp_path_factory, text,
                                                                    field_limit, schema):
    """numpy's reader either defers or returns `csv.reader`'s bytes, and
    `read_csv` always gives the general path's array or error.  The field
    and `int` digit limits are lowered so that over-long lines are cheap."""
    data = text.encode("utf-8")
    (path := tmp_path_factory.mktemp("csv") / "d.csv").write_bytes(data)
    old_limit, old_digits = csv.field_size_limit(field_limit), sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        general = _outcome(relational._read_general, data, schema)
        plain = relational._read_plain(data, schema)
        assert plain is None or (plain.dtype, plain.tobytes()) == general
        assert _outcome(read_csv, str(path), schema) == general
    finally:
        csv.field_size_limit(old_limit)
        sys.set_int_max_str_digits(old_digits)


def test_a_perfbench_shaped_file_takes_the_plain_path(tmp_path, monkeypatch):
    """A file as the benchmark writes it (repr'd floats, 0.5% of cells out of
    their domain) never reaches `csv.reader`, and gives its bytes."""
    schema = parse_schema("age int 0 99\nregion cat north south east west\n"
                          "tier int 0 3\nincome real 0.0 200.0\nscore int 0 100\n")
    rng = random.Random(7)
    lines = ["age,region,tier,income,score"]
    for _ in range(2000):
        lines.append(",".join([
            str(rng.choice([rng.randint(0, 99), -3, 140])),
            rng.choice(["north", "south", "east", "west", "unknown"]),
            str(rng.randint(0, 3)),
            repr(rng.choice([round(rng.uniform(0.0, 200.0), 3), -0.5, 250.25, -0.0])),
            str(rng.randint(-1, 101))]))
    data = ("\n".join(lines) + "\n").encode()
    (tmp_path / "d.csv").write_bytes(data)
    expected = relational._read_general(data, schema)

    def refuse(*_):
        raise AssertionError("the general path read a plain file")

    monkeypatch.setattr(relational, "_read_general", refuse)
    array = read_csv(str(tmp_path / "d.csv"), schema)
    assert array.dtype == expected.dtype and array.tobytes() == expected.tobytes()


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
    assert registry.table("ds1").rows == ((0, "c"), (100, "a"), (7, "b"))


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
        registry.table("ds1")


def test_registries_on_one_root_claim_distinct_handles(tmp_path):
    """Two processes registering at once each claim their handle's directory
    before either stores a table, so neither takes the other's handle."""
    table = make_table(parse_schema(SMALL), [(1, "a")])
    first, second = DatasetRegistry(str(tmp_path)), DatasetRegistry(str(tmp_path))
    assert first.register(table) != second.register(table)
