import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dpcore import transforms
from dpcore.errors import ContractViolation, RejectedOperationError
from dpcore.randomness import RandomSource
from dpcore.relational import ColumnKind, ColumnMeta, Schema, make_table, symmetric_difference
from dpcore.transforms import (
    Affine,
    Clamp,
    Comparison,
    Square,
    TableMeta,
    _STEPS,
    aggregate,
    bernoulli_sample,
    distinct,
    group_by,
    map_column,
    parse_plan,
    project,
    select_where,
    self_union,
)
from doubles import ScriptedSource
from oracles import interval_image, multiset_distance, reference_step
from propcheck import output_distance
from steps import apply


def _schema(upper0=100):
    return Schema((
        ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=upper0),
        ColumnMeta("c1", ColumnKind.INTEGER, lower=0, upper=1),
    ))


# -- row/column operators ----------------------------------------------------

def test_select_where_filters_and_refines_bounds():
    t = make_table(_schema(), [(10, 0), (60, 1), (90, 1)])
    out = apply(select_where, t, (Comparison("c0", "<=", 60),))
    assert out.rows == ((10, 0), (60, 1))
    assert out.schema.column("c0").upper == 60  # bound refined by predicate
    assert out.stability == 1


def test_select_where_unknown_column():
    t = make_table(_schema(), [])
    with pytest.raises(Exception):
        apply(select_where, t, (Comparison("nope", "==", 1),))


@pytest.mark.parametrize("rows", [[], [("a", 1)]])
def test_select_where_checks_constant_kind_before_scanning(rows):
    """A constant of the wrong kind is rejected from metadata alone, so the
    empty table and a one-row table fail alike."""
    schema = Schema((
        ColumnMeta("k", ColumnKind.CATEGORICAL, values=("a", "b")),
        ColumnMeta("v", ColumnKind.INTEGER, lower=0, upper=9),
    ))
    t = make_table(schema, rows)
    for comp in (Comparison("k", "<", 5), Comparison("v", "==", "a"),
                 Comparison("v", "<", math.nan), Comparison("v", ">", math.inf)):
        with pytest.raises(ContractViolation):
            apply(select_where, t, (comp,))
    assert len(apply(select_where, t, (Comparison("v", "<", 2.5),)).rows) == len(rows)


@pytest.mark.parametrize("lower,upper,row,line", [
    (0, 99, 5, "select_where c0 < 5.5"),
    (-99, 0, -5, "select_where c0 > -5.5"),
    (0, 99, 5, "select_where c0 <= 5.5"),
    (-99, 0, -5, "select_where c0 >= -5.5"),
])
def test_fractional_constant_keeps_integer_bounds_sound(lower, upper, row, line):
    """A non-integral constant on an integer column rounds the refined bound
    outward, so a row that passes the filter stays inside it."""
    schema = Schema((ColumnMeta("c0", ColumnKind.INTEGER, lower=lower, upper=upper),))
    v = parse_plan(line + "\nsum c0\n").execute(make_table(schema, [(row,)]))
    assert v.values.tolist() == [float(row)]
    assert v.l1_sensitivity == abs(row)


def test_project_drops_metadata():
    t = make_table(_schema(), [(10, 0), (60, 1)])
    out = apply(project, t, ["c1"])
    assert out.schema.names == ("c1",)
    assert out.rows == ((0,), (1,))


def test_distinct_keeps_key_columns_only():
    t = make_table(_schema(), [(10, 0), (10, 1), (20, 0)])
    out = apply(distinct, t, ["c0"])
    assert out.schema.names == ("c0",)
    assert out.rows == ((10,), (20,))
    assert out.stability == 1


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), max_size=6),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), max_size=6))
def test_one_stable_operators_contract(rows_a, rows_b):
    """d(op(A), op(B)) <= d(A, B) for the 1-stable operators, exhaustively
    over random small tables."""
    schema = Schema((
        ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=5),
        ColumnMeta("c1", ColumnKind.INTEGER, lower=0, upper=1),
    ))
    a, b = make_table(schema, rows_a), make_table(schema, rows_b)
    d = symmetric_difference(a, b)
    pred = (Comparison("c0", ">=", 2),)
    assert symmetric_difference(apply(select_where, a, pred), apply(select_where, b, pred)) <= d
    assert multiset_distance(apply(project, a, ["c1"]).rows,
                             apply(project, b, ["c1"]).rows) <= d
    assert multiset_distance(apply(distinct, a, ["c0"]).rows,
                             apply(distinct, b, ["c0"]).rows) <= d


def test_five_self_unions_reach_stability_32():
    t = make_table(_schema(), [(1, 0)])
    for _ in range(5):
        t = apply(self_union, t)
    assert t.stability == 32
    assert len(t.rows) == 32


def test_group_by_uses_full_domain_and_doubles_stability():
    schema = Schema((
        ColumnMeta("k", ColumnKind.INTEGER, lower=0, upper=2),
        ColumnMeta("v", ColumnKind.INTEGER, lower=0, upper=9),
    ))
    t = make_table(schema, [(0, 3), (0, 4)])
    g = apply(group_by, t, ["k"])
    assert g.labels == ("0", "1", "2")  # empty groups materialized
    assert apply(aggregate, g, "count").values.tolist() == [2.0, 0.0, 0.0]
    assert g.stability == 2


def test_group_by_rejects_real_keys():
    schema = Schema((ColumnMeta("x", ColumnKind.REAL, lower=0, upper=1),))
    with pytest.raises(ContractViolation):
        apply(group_by, make_table(schema, []), ["x"])


def test_group_by_refuses_a_repeated_key_and_a_huge_domain_before_enumerating(monkeypatch):
    """The cap is on the cross-product, checked from the declared bounds:
    a key over all of int64 is refused at once, not enumerated."""
    schema = Schema((
        ColumnMeta("k", ColumnKind.INTEGER, lower=0, upper=2),
        ColumnMeta("c", ColumnKind.CATEGORICAL, values=("a", "b")),
        ColumnMeta("w", ColumnKind.INTEGER, lower=-2**63, upper=2**63 - 1),
    ))
    for keys in (["k", "k"], ["c", "k", "c"], ["w"], ["k", "w"]):
        with pytest.raises(ContractViolation):
            group_by(TableMeta(schema), keys)
    monkeypatch.setattr(transforms, "MAX_GROUP_CELLS", 6)
    assert group_by(TableMeta(schema), ["k", "c"])[0].labels == \
        ("0/a", "0/b", "1/a", "1/b", "2/a", "2/b")
    monkeypatch.setattr(transforms, "MAX_GROUP_CELLS", 5)
    with pytest.raises(ContractViolation):
        group_by(TableMeta(schema), ["k", "c"])


def test_group_by_cap_is_two_to_the_twenty_cells():
    assert transforms.MAX_GROUP_CELLS == 2**20
    schema = Schema((ColumnMeta("k", ColumnKind.INTEGER, lower=1, upper=2**20 + 1),))
    with pytest.raises(ContractViolation):
        parse_plan("group_by k\ncount").check(schema)


def test_bernoulli_sample_keeps_stability():
    t = make_table(_schema(), [(i, 0) for i in range(10)])
    out = apply(bernoulli_sample, t, 0.5, rng=ScriptedSource(uniforms=(0.1, 0.9)))
    assert out.stability == t.stability
    assert len(out.rows) == 5  # alternating keep/drop from the script
    with pytest.raises(ContractViolation):
        apply(bernoulli_sample, t, 1.5, rng=ScriptedSource())


class _AllOnesSource(RandomSource):
    """A real source whose keystream bytes are all 0xFF."""

    def bytes(self, n):
        return bytearray(b"\xff" * n)


def test_bernoulli_sample_at_one_keeps_every_row_on_the_all_ones_word():
    """The all-ones 64-bit word is the largest uniform draw; it is still below
    1, so p = 1 keeps every row and p = 0 none."""
    rng = _AllOnesSource()
    assert rng.uniform_full(3).tolist() == [1 - 2.0 ** -53] * 3
    t = make_table(_schema(), [(i, 0) for i in range(5)])
    assert len(apply(bernoulli_sample, t, 1.0, rng=rng).rows) == 5
    assert len(apply(bernoulli_sample, t, 0.0, rng=rng).rows) == 0


# -- column maps -------------------------------------------------------------

@pytest.mark.parametrize("f,lo,hi", [
    (Clamp(-1.0, 1.0), -3.0, 4.0),
    (Affine(-2.0, 5.0), -3.0, 4.0),
    (Square(), -3.0, 4.0),
    (Square(), 1.0, 4.0),
])
def test_map_bounds_contain_function_image(f, lo, hi):
    got_lo, got_hi = f.bounds(lo, hi)
    img_lo, img_hi = interval_image(f, lo, hi)
    assert got_lo <= img_lo + 1e-9
    assert got_hi >= img_hi - 1e-9


@pytest.mark.parametrize("words", ["clamp 9 1", "clamp nan 5", "clamp 0 nan", "clamp nan nan"])
def test_clamp_refuses_bounds_out_of_order_or_nan(words):
    with pytest.raises(ContractViolation, match="clamp lower > upper"):
        parse_plan(f"map_column c0 {words}\ncount")


def test_map_column_updates_schema_bounds():
    schema = Schema((ColumnMeta("x", ColumnKind.REAL, lower=-3, upper=4),))
    t = make_table(schema, [(-2.0,), (3.0,)])
    out = apply(map_column, t, "x", Square())
    assert out.rows == ((4.0,), (9.0,))
    assert out.schema.column("x").lower == 0.0
    assert out.schema.column("x").upper == 16.0
    assert out.stability == 1


# -- aggregation and sensitivity ---------------------------------------------

def test_count_sensitivity_is_stability():
    t = make_table(_schema(), [(1, 0), (2, 1)])
    v = apply(aggregate, t, "count")
    assert v.values.tolist() == [2.0]
    assert v.l1_sensitivity == 1.0
    assert apply(aggregate, apply(self_union, t), "count").l1_sensitivity == 2.0


def test_sum_sensitivity_uses_declared_bound():
    t = make_table(_schema(), [(7, 0), (8, 1)])
    v = apply(aggregate, t, "sum", "c0")
    assert v.values.tolist() == [15.0]
    assert v.l1_sensitivity == 100.0  # max(|0|, |100|)


def test_doubled_sum_claims_doubled_sensitivity():
    schema = Schema((ColumnMeta("wage", ColumnKind.INTEGER, lower=0, upper=300_000),))
    t = make_table(schema, [(10_000,), (20_000,)])
    doubled = apply(self_union, t)
    v = apply(aggregate, doubled, "sum", "wage")
    assert v.l1_sensitivity == 600_000.0
    assert v.values.tolist() == [60_000.0]


def test_grouped_aggregate_has_data_independent_labels():
    schema = Schema((
        ColumnMeta("k", ColumnKind.CATEGORICAL, values=("a", "b")),
        ColumnMeta("v", ColumnKind.INTEGER, lower=0, upper=9),
    ))
    t = make_table(schema, [("a", 3)])
    empty = make_table(schema, [])
    v_full = apply(aggregate, apply(group_by, t, ["k"]), "count")
    v_empty = apply(aggregate, apply(group_by, empty, ["k"]), "count")
    assert v_full.dimension_labels == v_empty.dimension_labels
    assert sorted(v_full.dimension_labels) == ["a", "b"]
    assert v_full.l1_sensitivity == 2.0  # grouping doubled the stability


def test_aggregate_defined_on_empty_input():
    empty = make_table(_schema(), [])
    assert apply(aggregate, empty, "count").values.tolist() == [0.0]
    assert apply(aggregate, empty, "sum", "c0").values.tolist() == [0.0]


def test_sum_requires_bounded_numeric_column():
    schema = Schema((ColumnMeta("k", ColumnKind.CATEGORICAL, values=("a",)),))
    t = make_table(schema, [("a",)])
    with pytest.raises(ContractViolation):
        apply(aggregate, t, "sum", "k")
    with pytest.raises(ContractViolation):
        apply(aggregate, t, "sum")


# -- rejected operators -------------------------------------------------------

def test_rejected_operators_explain_themselves():
    with pytest.raises(RejectedOperationError, match="min\\(2k, 2m\\)"):
        parse_plan("limit 5\ncount")
    with pytest.raises(RejectedOperationError, match="bernoulli_sample"):
        parse_plan("limit 5\ncount")
    for name in ("order_by", "skip", "window"):
        with pytest.raises(RejectedOperationError):
            parse_plan(f"{name}\ncount")
    with pytest.raises(ContractViolation):
        parse_plan("whatever\ncount")


# -- plan grammar -------------------------------------------------------------

def test_parse_plan_and_execute():
    plan = parse_plan(
        "select_where c0 >= 10 and c0 <= 90\n"
        "map_column c0 clamp 0 50\n"
        "count\n"
    )
    t = make_table(_schema(), [(5, 0), (20, 1), (95, 0)])
    v = plan.execute(t)
    assert v.values.tolist() == [1.0]


def test_parse_plan_sum_and_self_union():
    plan = parse_plan("self_union\nsum c0\n")
    t = make_table(_schema(), [(10, 0)])
    v = plan.execute(t)
    assert v.values.tolist() == [20.0]
    assert v.l1_sensitivity == 200.0


def test_plan_must_end_in_aggregation():
    # A grouped table can only be aggregated, so group_by comes last but one.
    for text in ("project c0\n", "count\nproject c0\n", "",
                 "group_by c1\nselect_where c0 > 3\ncount\n",
                 "group_by c0\ngroup_by c1\ncount\n",
                 "group_by c1\nself_union\nsum c0\n"):
        with pytest.raises(ContractViolation):
            parse_plan(text)


def test_plan_rejects_limit():
    with pytest.raises(RejectedOperationError):
        parse_plan("limit 10\ncount\n")
    # Missing or surplus words are rejected too, a trailing `and` included.
    for line in ("select_where c0 > 3 and", "select_where c0 > 3 c1", "select_where c0 >",
                 "select_where c0 > 3 or c1 == 1", "select_where", "project", "distinct",
                 "group_by", "self_union c0", "bernoulli_sample", "bernoulli_sample 0.5 1",
                 "bernoulli_sample half", "map_column c0", "map_column c0 clamp 1",
                 "map_column c0 clamp 1 2 3", "map_column c0 square 2", "map_column c0 floor",
                 "map_column c0 affine x 1", "frobnicate"):
        with pytest.raises(ContractViolation):
            parse_plan(line + "\ncount\n")
    for text in ("count c0\n", "sum\n", "sum c0 c1\n"):
        with pytest.raises(ContractViolation):
            parse_plan(text)


def test_plan_bernoulli_requires_rng():
    plan = parse_plan("bernoulli_sample 0.5\ncount\n")
    t = make_table(_schema(), [(1, 0)])
    with pytest.raises(ContractViolation):
        plan.execute(t)
    assert plan.execute(t, ScriptedSource(uniforms=(0.1,))).values.tolist() == [1.0]


# -- exact sums ------------------------------------------------------------------

_WIDE = Schema((ColumnMeta("x", ColumnKind.REAL, lower=-1e16, upper=1e16),
                ColumnMeta("n", ColumnKind.INTEGER, lower=-2**62, upper=2**62),
                ColumnMeta("k", ColumnKind.INTEGER, lower=0, upper=1)))


def test_real_sum_does_not_depend_on_row_order():
    a = make_table(_WIDE, [(1e16, 0, 0), (1.0, 0, 0), (-1e16, 0, 0)])
    b = make_table(_WIDE, [(1e16, 0, 0), (-1e16, 0, 0), (1.0, 0, 0)])
    assert apply(aggregate, a, "sum", "x").values.tolist() == [1.0]
    assert apply(aggregate, b, "sum", "x").values.tolist() == [1.0]


def test_real_sum_of_huge_terms_is_exact_or_infinite():
    """math.fsum raises on these sums, the finite one too."""
    schema = Schema((ColumnMeta("x", ColumnKind.REAL, lower=-1e308, upper=1e308),))
    for rows, total in (([1e308, 1e308, -1e308], 1e308), ([1e308, 1e308], math.inf),
                        ([-1e308, -1e308], -math.inf)):
        t = make_table(schema, [(x,) for x in rows])
        assert apply(aggregate, t, "sum", "x").values.tolist() == [total]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.floats(-1e16, 1e16), st.sampled_from([1e16, -1e16, 1.0, 0.1, 2.0**-30])),
    st.integers(-2**62, 2**62), st.integers(0, 1)), max_size=7), st.data())
def test_sums_are_exact_and_order_free(rows, data):
    """Every permutation of a table gives the same StatVector, grouped or
    not, and each sum is the Fraction-exact sum rounded once."""
    order = data.draw(st.permutations(range(len(rows))))
    tables = [make_table(_WIDE, rows), make_table(_WIDE, [rows[i] for i in order])]
    for column in ("x", "n"):
        vectors = [apply(aggregate, t, "sum", column) for t in tables]
        grouped = [apply(aggregate, apply(group_by, t, ["k"]), "sum", column) for t in tables]
        i = _WIDE.index(column)
        exact = [float(sum((Fraction(r[i]) for r in tables[0].rows if key is None
                            or r[2] == key), Fraction(0))) for key in (None, 0, 1)]
        assert vectors[0].values.tolist() == exact[:1]
        assert grouped[0].values.tolist() == exact[1:]
        for a, b in (vectors, grouped):
            assert (a.values.tolist(), a.dimension_labels, a.l1_sensitivity, a.integral) == \
                (b.values.tolist(), b.dimension_labels, b.l1_sensitivity, b.integral)


# -- the columnar executor against the row-by-row reference ----------------------

_DIFF_SCHEMA = Schema((
    ColumnMeta("g", ColumnKind.CATEGORICAL, values=("b", "a", "c", "B", "ab")),
    ColumnMeta("k", ColumnKind.INTEGER, lower=0, upper=3),
    ColumnMeta("n", ColumnKind.INTEGER, lower=-2**62, upper=2**62),
    ColumnMeta("x", ColumnKind.REAL, lower=-1e16, upper=1e16),
))
_BIG = 2**53
_DIFF_ROWS = st.lists(st.tuples(
    st.sampled_from(("b", "a", "c", "B", "ab", "zz")),
    st.integers(-1, 4),
    st.one_of(st.sampled_from([_BIG, _BIG + 1, -_BIG - 1, 0]), st.integers(-2**62, 2**62)),
    st.one_of(st.sampled_from([float(_BIG), 1e16, 0.5, -0.0]), st.floats(-1e16, 1e16)),
), max_size=10)
# numpy compares int64 with a float, and a float with a large int, in
# float64: 2**53 + 1 == 2**53 (a float) and 2**53 (a float) < 2**53 + 1 both
# go wrong there, so those constants come up often.
_DIFF_CONSTANTS = {
    "g": ("a", "b", "B", "ab", "aa", "c", "zz"),
    "k": ("-1", "0", "2", "4", "1.5", "2.0"),
    "n": ("9007199254740992.0", str(_BIG + 1), "9007199254740992.0", str(-_BIG - 1), "2.5",
          str(2**70)),
    "x": (str(_BIG + 1), str(_BIG + 1), "9007199254740992.0", "0.5", "1e16", str(2**1100)),
}
_DIFF_COMPARISON = st.sampled_from(sorted(_DIFF_CONSTANTS)).flatmap(
    lambda c: st.builds("{} {} {}".format, st.just(c),
                        st.sampled_from(("<", "<=", ">", ">=", "==", "!=")),
                        st.sampled_from(_DIFF_CONSTANTS[c])))
_DIFF_COLUMNS = st.lists(st.sampled_from(("g", "k", "n", "x")), min_size=1, max_size=3,
                         unique=True).map(" ".join)
_DIFF_STEP = st.one_of(
    st.lists(_DIFF_COMPARISON, min_size=1, max_size=3).map(
        lambda cs: "select_where " + " and ".join(cs)),
    _DIFF_COLUMNS.map("project {}".format),
    _DIFF_COLUMNS.map("distinct {}".format),
    st.just("self_union"),
    st.sampled_from(("0.0", "0.5", "1.0")).map("bernoulli_sample {}".format),
    st.builds("map_column {} {}".format, st.sampled_from(("g", "k", "n", "x")),
              st.sampled_from(("clamp 0 50", "clamp 1.5 2.5", "clamp -3 2", "affine 2 1",
                               "affine -0.5 3", "square"))),
)
# Only small-domain columns are grouped: a key's whole domain is enumerated.
_DIFF_GROUP = st.sampled_from(([], ["group_by g"], ["group_by k"], ["group_by g k"],
                               ["group_by k g"]))
_DIFF_AGG = st.sampled_from(("count", "sum k", "sum n", "sum x", "sum g"))


def _scripted():
    return ScriptedSource(uniforms=(0.1, 0.6, 0.3, 0.9, 0.5))


@settings(max_examples=300, deadline=None)
@given(_DIFF_ROWS, st.lists(_DIFF_STEP, max_size=4), _DIFF_GROUP, _DIFF_AGG)
@example([("a", 0, _BIG + 1, 0.5)], ["select_where n == 9007199254740992.0"], [], "count")
@example([("a", 0, 0, float(_BIG))], [f"select_where x < {_BIG + 1}"], [], "count")
@example([("a", 0, 0, 0.5), ("B", 1, 0, 0.5)], ["select_where g > aa"], [], "count")
@example([("a", 0, 0, 0.5), ("a", 1, 0, 0.5)], ["distinct g"], [], "count")
@example([("a", 0, _BIG + 1, 0.5)], ["map_column n clamp 0 50"], [], "count")
def test_columnar_executor_matches_the_row_reference(rows, steps, group, agg):
    """Random plans from the plan-step words on tables with categorical
    order comparisons and ints beyond 2**53: after every step the rows
    (order and Python types included) are the reference's, and the
    StatVector's values, labels, sensitivity and integrality too.
    `check` refuses exactly the plans one of whose rules refuses, and
    otherwise claims the row pass's labels, sensitivity and integrality.
    A rule sees no row, so a refusal cannot depend on the data."""
    try:
        plan = parse_plan("\n".join(steps + group + [agg]))
    except ContractViolation:
        assume(False)
    try:
        claim = plan.check(_DIFF_SCHEMA)
    except ContractViolation as exc:
        claim = exc
    table = make_table(_DIFF_SCHEMA, rows)
    ref, stability = table.rows, 1
    rng, ref_rng = _scripted(), _scripted()
    for kind, *args in plan.steps:
        try:
            out = apply(_STEPS[kind][1], table, *args, rng=rng)
        except ContractViolation as exc:
            assert type(claim) is type(exc)
            return
        stability *= 2 if kind in ("self_union", "group_by") else 1
        schema = getattr(table, "table", table).schema  # a grouped table's rows
        expected = reference_step(kind, tuple(args), schema, getattr(out, "schema", None),
                                  ref, ref_rng, stability)
        if kind in ("count", "sum"):
            assert (out.values.tolist(), out.dimension_labels, out.l1_sensitivity,
                    out.integral) == expected
            assert (claim.labels, claim.l1_sensitivity, claim.integral) == expected[1:]
        elif kind == "group_by":
            assert out.labels == tuple("/".join(map(str, key)) for key in expected)
            assert [out.labels[c] for c in out.cells.tolist()] == \
                ["/".join(str(r[schema.index(k)]) for k in args[0]) for r in out.table.rows]
        else:
            assert out.rows == expected
            assert [tuple(map(type, r)) for r in out.rows] == \
                [tuple(map(type, r)) for r in expected]
            assert out.stability == stability
        table, ref = out, expected


# -- the claim against neighbours' exact StatVectors -----------------------------

_SENS_SCHEMA = Schema((
    ColumnMeta("g", ColumnKind.CATEGORICAL, values=("b", "a", "c")),
    ColumnMeta("k", ColumnKind.INTEGER, lower=-9, upper=4),
    ColumnMeta("n", ColumnKind.INTEGER, lower=0, upper=9),
    ColumnMeta("x", ColumnKind.REAL, lower=-5.0, upper=4.0),
))
_SENS_ROW = st.tuples(st.sampled_from(("b", "a", "c")), st.integers(-9, 4), st.integers(0, 9),
                      st.floats(-5.0, 4.0))
_SENS_CONSTANTS = {"g": ("a", "b", "c"), "k": ("-4", "-1.5", "0", "2.5"),
                   "n": ("2", "4.5", "5.5", "7"), "x": ("-2.5", "0", "1.5", "3")}
_SENS_COMPARISON = st.sampled_from(sorted(_SENS_CONSTANTS)).flatmap(
    lambda c: st.builds("{} {} {}".format, st.just(c),
                        st.sampled_from(("<", "<=", ">", ">=", "==", "!=")),
                        st.sampled_from(_SENS_CONSTANTS[c])))
_SENS_COLUMNS = st.lists(st.sampled_from(("g", "k", "n", "x")), min_size=1, max_size=2,
                         unique=True).map(" ".join)
#: The words after each plan step's name; every `_STEPS` entry has one.
_SENS_WORDS = {
    "select_where": st.lists(_SENS_COMPARISON, min_size=1, max_size=2).map(" and ".join),
    "project": _SENS_COLUMNS,
    "distinct": _SENS_COLUMNS,
    "self_union": st.just(""),
    "group_by": st.sampled_from(("g", "n", "g n")),
    # One uniform for every row keeps or drops all of them alike on both
    # neighbours, so sampling is coupled and its stability 1 is exact.
    "bernoulli_sample": st.sampled_from(("0.0", "0.5", "1.0")),
    "map_column": st.builds("{} {}".format, st.sampled_from(("k", "n", "x")),
                            st.sampled_from(("clamp 0 2", "clamp -3 1.5", "affine -2 1",
                                             "affine 0.5 3", "square"))),
    "count": st.just(""),
    "sum": st.sampled_from(("k", "n", "x")),
}
_SENS_STEP = st.sampled_from(sorted(set(_STEPS) - {"group_by", "count", "sum"})).flatmap(
    lambda kind: _SENS_WORDS[kind].map(lambda words: f"{kind} {words}"))
_SENS_PLAN = st.builds(
    lambda steps, group, agg: "\n".join(steps + group + [agg]),
    st.lists(_SENS_STEP, max_size=3),
    st.one_of(st.just([]), _SENS_WORDS["group_by"].map(lambda keys: [f"group_by {keys}"])),
    st.sampled_from(("count", "sum")).flatmap(
        lambda agg: _SENS_WORDS[agg].map(lambda words: f"{agg} {words}")))


def _l1_within(a, b, bound) -> bool:
    """Whether the exact L1 distance of two value vectors is at most `bound`
    plus half an ulp of each value.  Every value is an exact sum rounded
    once to a float, which moves it by at most half its ulp; so the
    allowance is that rounding and nothing more.  ROADMAP item 1 rounds
    real sums onto a grid whose width the sensitivity covers."""
    exact = sum(abs(Fraction(u) - Fraction(v)) for u, v in zip(a, b))
    rounding = sum(Fraction(math.ulp(u)) / 2 + Fraction(math.ulp(v)) / 2 for u, v in zip(a, b))
    return exact <= Fraction(bound) + rounding


@settings(max_examples=200, deadline=None)
@given(_SENS_PLAN, st.lists(_SENS_ROW, max_size=5), _SENS_ROW)
@example("select_where n < 5.5\nsum n", [], ("a", 0, 5, 0.0))
@example("select_where n > 4.5\nsum n", [], ("a", 0, 9, 0.0))
@example("sum k", [], ("a", -9, 0, 0.0))
@example("map_column k clamp 0 2\nsum k", [], ("a", -9, 0, 0.0))
@example("sum x", [("a", 0, 0, -4.175736913354338)], ("a", 0, 0, -5.0))
def test_claims_bound_one_row_neighbours(plan_text, rows, extra):
    """Random plans from every `_STEPS` grammar word, each on a random table
    and its one-row neighbours (the table with one more row, and with each
    of its rows removed).  After every step the tracked stability bounds the
    distance of the two outputs, and the exact StatVectors lie within the
    claim's l1_sensitivity of each other (see `_l1_within`).  The explicit
    examples pin an integer bound refined by a fractional constant, a
    sum's influence on a column whose lower bound has the larger magnitude,
    a clamp whose bounds set the sum's, and a real sum whose neighbours'
    rounded sums land one ulp past Δ."""
    plan = parse_plan(plan_text)
    try:
        claim = plan.check(_SENS_SCHEMA)
    except ContractViolation:
        assume(False)
    base = make_table(_SENS_SCHEMA, rows)
    neighbours = [make_table(_SENS_SCHEMA, rows + [extra])] + \
        [make_table(_SENS_SCHEMA, rows[:i] + rows[i + 1:]) for i in range(len(rows))]
    for other in neighbours:
        a, b = base, other
        for kind, *args in plan.steps:
            a, b = (apply(_STEPS[kind][1], t, *args, rng=ScriptedSource(uniforms=(0.25,)))
                    for t in (a, b))
            if kind not in ("count", "sum"):
                assert output_distance(a, b) <= a.stability, (kind, args)
        assert _l1_within(a.values.tolist(), b.values.tolist(), claim.l1_sensitivity)
