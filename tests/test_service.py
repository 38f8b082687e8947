import contextlib
import importlib
import inspect
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpcore.service as service_mod
from dpcore.accounting import Accountant, PURE_EPS
from dpcore.errors import ContractViolation, ParameterError
from dpcore.mechanisms import MECHANISMS, private_release
from dpcore.randomness import RandomSource
from dpcore.registry import DatasetRegistry
from dpcore.relational import (
    ColumnKind,
    ColumnMeta,
    Schema,
    StatVector,
    Table,
    make_table,
    parse_schema,
)
from dpcore.service import (
    BudgetStatus,
    QueryRequest,
    QueryResponse,
    QueryService,
    ServiceConfig,
    build_accountant,
)
from dpcore.transforms import Comparison, TransformPlan, parse_plan
from doubles import ScriptedSource, SimulatedClock, paced_scans, zero_noise_source


SIDECAR = "c0 int 0 100\nc1 int 0 1\n"


def _write_dataset(tmp_path, rows, name="d"):
    (tmp_path / f"{name}.csv").write_text(
        "c0,c1\n" + "".join(f"{a},{b}\n" for a, b in rows))
    (tmp_path / f"{name}.schema").write_text(SIDECAR)
    return str(tmp_path / f"{name}.csv"), str(tmp_path / f"{name}.schema")


def _service(closing, tmp_path, rows, clock=None, seed_bits=(7,), budget=1e9):
    tmp_path.mkdir(exist_ok=True)
    csv, sidecar = _write_dataset(tmp_path, rows)
    registry = DatasetRegistry()
    acct = closing(Accountant())
    acct.create_scope("main", PURE_EPS, budget)
    config = ServiceConfig(xi=1.0, overhead=5.0)
    svc = QueryService(registry, acct, config, clock=clock,
                       rng=ScriptedSource(bits=seed_bits))
    handle = svc.ingest(csv, sidecar)
    return svc, handle, acct


# -- layer isolation -----------------------------------------------------------

def test_service_api_never_touches_tables_or_vectors():
    """No public callable in the service module accepts or returns raw data
    objects; it speaks handles and MechanismResults only."""
    for name, obj in vars(service_mod).items():
        if name.startswith("_") or not callable(obj):
            continue
        for target in ([obj] if inspect.isfunction(obj) else
                       [m for _, m in inspect.getmembers(obj, inspect.isfunction)
                        if not m.__name__.startswith("_")]):
            if target.__module__ != "dpcore.service":
                continue
            hints = inspect.signature(target)
            text = str(hints)
            assert "Table" not in text, (name, text)
            assert "StatVector" not in text, (name, text)


def test_the_package_ships_no_test_double_and_no_test_only_bug():
    """The scripted source, the simulated clock and the test-only bugs live
    in tests/, so the installed package holds no replayable randomness."""
    for module in ("dpcore.testing", "dpcore.audit.bugs"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


def test_gateway_is_the_only_release_path():
    assert MECHANISMS == ("laplace", "laplace_int", "noisy_histogram")


# -- sessions -------------------------------------------------------------------

def test_open_session_spends_startup_budget(tmp_path, closing):
    svc, handle, acct = _service(closing, tmp_path, [(1, 0), (2, 1)], clock=SimulatedClock(),
                                 budget=10.0)
    svc.open_session(handle, "main")
    assert acct.spent("main") > 0  # the n-hat estimate was paid for


def test_dump_restore_sessions_drops_randomness(tmp_path, closing):
    svc, handle, acct = _service(closing, tmp_path, [(1, 0)], clock=SimulatedClock())
    session = svc.open_session(handle, "main")
    raw = svc.dump_sessions()
    assert "rng" not in json.dumps(raw)  # randomness is never persisted
    assert "counter" not in json.dumps(raw)  # ids come from the ledger
    svc2 = QueryService(DatasetRegistry(), acct, ServiceConfig())
    svc2.restore_sessions(raw)
    restored = svc2.session(session.session_id)
    assert restored.n_hat == session.n_hat
    assert session.session_id == f"s{acct.ledger[-1].seq}"


def test_a_sessions_file_with_an_old_counter_restores(tmp_path, closing):
    svc, handle, acct = _service(closing, tmp_path, [(1, 0)], clock=SimulatedClock())
    sid = svc.open_session(handle, "main").session_id
    raw = {"counter": 7, **svc.dump_sessions()}
    svc2 = QueryService(DatasetRegistry(), acct, ServiceConfig())
    svc2.restore_sessions(json.loads(json.dumps(raw)))
    assert svc2.session(sid).n_hat == raw["sessions"][sid]["n_hat"]


def test_sessions_keep_n_hat_but_not_xi(tmp_path, closing):
    """Every session pads with the config's xi, so the dump leaves it out,
    and a file from before that still holds one restores all the same."""
    svc, handle, acct = _service(closing, tmp_path, [(1, 0)], clock=SimulatedClock())
    sid = svc.open_session(handle, "main").session_id
    raw = svc.dump_sessions()
    assert set(raw["sessions"][sid]) == {"dataset", "scope", "n_hat"}
    raw["sessions"][sid]["xi"] = 123.0
    svc2 = QueryService(DatasetRegistry(), acct, ServiceConfig())
    svc2.restore_sessions(json.loads(json.dumps(raw)))
    assert svc2.session(sid).n_hat == raw["sessions"][sid]["n_hat"]


def test_open_session_on_an_unlimited_scope_is_refused(tmp_path, closing):
    """The startup estimate spends a share of what remains, and an unlimited
    scope has an infinite share: it is refused, and nothing is booked."""
    csv, sidecar = _write_dataset(tmp_path, [(1, 0)])
    acct = closing(Accountant())
    acct.create_scope("u", PURE_EPS)
    svc = QueryService(DatasetRegistry(), acct, ServiceConfig(), clock=SimulatedClock())
    handle = svc.ingest(csv, sidecar)
    with pytest.raises(ParameterError):
        svc.open_session(handle, "u")
    assert acct.spent("u") == 0.0 and acct.ledger == ()


def test_open_session_trace_does_not_depend_on_the_dataset(tmp_path, closing):
    """The first use of a dataset loads and counts it inside open_session,
    whose release is padded to start + overhead: the clock trace of a
    1-row and of a 10**4-row dataset is the same, and errors pad alike."""
    traces = []
    for i, n in enumerate((1, 10_000)):
        clock = SimulatedClock()
        clock.time = 100.0
        svc, handle, _ = _service(closing, tmp_path / f"d{i}", [(7, 1)] * n, clock=clock)
        svc.open_session(handle, "main")
        with pytest.raises(ContractViolation):
            svc.open_session("ds99", "main")
        traces.append(clock.trace_bytes())
        assert clock.trace[0] == ("sleep_until", 105.0)
    assert traces[0] == traces[1]


def test_unknown_session_rejected(tmp_path, closing):
    svc, _, _ = _service(closing, tmp_path, [])
    with pytest.raises(ContractViolation):
        svc.session("nope")


# -- query execution ---------------------------------------------------------------

def test_run_query_success_and_budget_decrement(tmp_path, closing):
    clock = SimulatedClock()
    svc, handle, acct = _service(closing, tmp_path, [(10, 0), (20, 1), (30, 0)], clock=clock)
    session = svc.open_session(handle, "main")
    spent0 = acct.spent("main")
    resp = svc.run_query(session, QueryRequest("count", "laplace", 1.0))
    assert resp.status == "ok" and resp.code == ""
    assert len(resp.values) == 1
    assert acct.spent("main") == pytest.approx(spent0 + 1.0)
    payload = json.loads(resp.to_bytes())
    assert payload["status"] == "ok"


def test_error_responses_share_one_shape(tmp_path, closing):
    clock = SimulatedClock()
    svc, handle, acct = _service(closing, tmp_path, [(1, 0)], clock=clock, budget=2.0)
    session = svc.open_session(handle, "main")
    bad_plan = svc.run_query(session, QueryRequest("frobnicate", "laplace", 0.5))
    bad_mech = svc.run_query(session, QueryRequest("count", "warp", 0.5))
    no_budget = svc.run_query(session, QueryRequest("count", "laplace", 99.0))
    for resp in (bad_plan, bad_mech, no_budget):
        assert resp.status == "error"
        assert resp.code == "request rejected"  # one code for every failure
        assert resp.values == () and resp.labels == ()


def test_failed_query_spends_nothing(tmp_path, closing):
    clock = SimulatedClock()
    svc, handle, acct = _service(closing, tmp_path, [(1, 0)], clock=clock)
    session = svc.open_session(handle, "main")
    spent0 = acct.spent("main")
    svc.run_query(session, QueryRequest("not a plan", "laplace", 0.5))
    assert acct.spent("main") == spent0


def test_histogram_query_releases_full_domain(tmp_path, closing):
    clock = SimulatedClock()
    svc, handle, acct = _service(closing, tmp_path, [(5, 1)], clock=clock)
    session = svc.open_session(handle, "main")
    resp = svc.run_query(session, QueryRequest("group_by c1\ncount",
                                               "noisy_histogram", 1.0))
    assert resp.status == "ok"
    assert resp.labels == ("0", "1")  # both cells, including the empty one


def test_empty_input_totality(tmp_path, closing):
    """Every operation is defined on the empty database."""
    clock = SimulatedClock()
    svc, handle, acct = _service(closing, tmp_path, [], clock=clock, budget=10.0)
    session = svc.open_session(handle, "main")
    for plan in ("count", "sum c0", "select_where c0 >= 5\ncount",
                 "group_by c1\ncount", "self_union\nsum c1"):
        resp = svc.run_query(session, QueryRequest(plan, "laplace", 1.0))
        assert resp.status == "ok", plan
    status = svc.budget_status(session)
    assert status.remaining > 0


# -- padded response timing -----------------------------------------------------------

def _neighbor_trace(closing, tmp_path, rows, sub, plans):
    """Run the same session script against `rows` and return the clock trace."""
    clock = SimulatedClock()
    (tmp_path / sub).mkdir(exist_ok=True)
    svc, handle, _ = _service(closing, tmp_path / sub, rows, clock=clock,
                              seed_bits=(3, 1, 4, 1, 5, 9))
    session = svc.open_session(handle, "main")
    with paced_scans(clock, svc._config.xi):
        for plan_text, mech, eps in plans:
            svc.run_query(session, QueryRequest(plan_text, mech, eps))
    return clock.trace_bytes()


def test_timing_trace_identical_across_neighbors(tmp_path, closing):
    rows = [(i % 100, i % 2) for i in range(40)]
    neighbor = rows + [(77, 1)]
    plans = [
        ("select_where c0 >= 10\ncount", "laplace", 0.5),
        ("sum c1", "laplace", 0.5),
        ("not a plan at all", "laplace", 0.5),  # error path pads identically
    ]
    t1 = _neighbor_trace(closing, tmp_path, rows, "a", plans)
    t2 = _neighbor_trace(closing, tmp_path, neighbor, "b", plans)
    assert t1 == t2  # byte-for-byte


_FUZZ_SCHEMA = Schema((
    ColumnMeta("region", ColumnKind.CATEGORICAL, values=("north", "south")),
    ColumnMeta("age", ColumnKind.INTEGER, lower=0, upper=99),
    ColumnMeta("income", ColumnKind.REAL, lower=0.0, upper=200.0),
))
_FUZZ_COLUMNS = st.sampled_from(("region", "age", "income", "nope"))
_FUZZ_COMPARISON = st.builds(
    "{} {} {}".format, _FUZZ_COLUMNS, st.sampled_from(("<", "<=", ">", ">=", "==", "!=")),
    st.sampled_from(("north", "west", "5", "-3", "2.5", "1e400", "nan")))
_FUZZ_AGGREGATION = st.one_of(st.just("count"), _FUZZ_COLUMNS.map("sum {}".format))
_FUZZ_STEP = st.one_of(
    st.builds(lambda comps, dangling: "select_where " + " and ".join(comps)
              + (" and" if dangling else ""),
              st.lists(_FUZZ_COMPARISON, min_size=1, max_size=3), st.booleans()),
    st.builds("{} {}".format, st.sampled_from(("project", "distinct", "group_by")),
              st.lists(_FUZZ_COLUMNS, max_size=2).map(" ".join)),
    st.just("self_union"),
    st.sampled_from(("0.5", "1.5", "x")).map("bernoulli_sample {}".format),
    st.builds("map_column {} {}".format, _FUZZ_COLUMNS,
              st.sampled_from(("clamp 0 50", "clamp 9 1", "clamp nan 5", "clamp 0 nan",
                               "affine -2 3", "square", "square 2"))),
    _FUZZ_AGGREGATION,
)
_FUZZ_PLAN = st.builds(lambda steps, agg: "\n".join(steps + [agg]),
                       st.lists(_FUZZ_STEP, max_size=4), _FUZZ_AGGREGATION)


def _fuzz_outcome(rows, plan_text, mechanism):
    registry = DatasetRegistry()
    handle = registry.register(make_table(_FUZZ_SCHEMA, rows))
    with contextlib.closing(Accountant()) as acct:
        acct.create_scope("main", PURE_EPS, 10.0)
        clock = SimulatedClock()
        svc = QueryService(registry, acct, ServiceConfig(xi=1.0, overhead=5.0), clock=clock,
                           rng=ScriptedSource(bits=(7,)))
        session = svc.open_session(handle, "main")
        n = len(acct.ledger)
        with paced_scans(clock, 1.0):
            resp = svc.run_query(session, QueryRequest(plan_text, mechanism, 1.0))
        charged = [(c.amount, c.mechanism) for c in acct.ledger[n:]]
    return resp.status, resp.code, resp.labels, clock.trace_bytes(), charged


@settings(max_examples=300, deadline=None)
@given(_FUZZ_PLAN, st.sampled_from(MECHANISMS),
       st.tuples(st.sampled_from(("north", "south")), st.integers(0, 99),
                 st.floats(0.0, 200.0)))
def test_plan_fuzz_outcome_identical_on_neighbors(plan_text, mechanism, row):
    """Plans from the grammar, malformed ones included: run_query never
    raises, and status, code, labels, the clock trace and the charges are
    the same on the empty dataset and on its one-row neighbor."""
    assert _fuzz_outcome([], plan_text, mechanism) == \
        _fuzz_outcome([row], plan_text, mechanism)


class _Loaded(Exception):
    """Raised by `_RowlessRegistry.table`: the release reached the load."""


class _RowlessRegistry(DatasetRegistry):
    """A registry whose `table` raises: a release that reads rows shows it."""

    def table(self, handle):
        raise _Loaded


def _release_outcome(registry, plan_text, mechanism, eps, handle="ds1"):
    """The exception type a `private_release` ends in (None if it returns)
    and the ledger lines it wrote, on the empty `_FUZZ_SCHEMA` table."""
    registry.register(make_table(_FUZZ_SCHEMA, []))
    with contextlib.closing(Accountant()) as acct:
        scope = acct.create_scope("main", PURE_EPS, 10.0)
        try:
            private_release(registry, handle, parse_plan(plan_text), mechanism, eps, scope,
                            zero_noise_source())
            ended = None
        except Exception as exc:
            ended = type(exc)
        return ended, len(acct.ledger)


@settings(max_examples=300, deadline=None)
@given(_FUZZ_PLAN, st.sampled_from(MECHANISMS), st.sampled_from((1.0, 1e-5, 20.0)))
def test_every_refusal_comes_before_the_load(plan_text, mechanism, eps):
    """Plans from the neighbour fuzz grammar, at an eps that passes, one
    under the floor and one over the budget: every request the real
    registry refuses is refused alike, with nothing charged, by a registry
    whose `table` raises; every request it grants is charged and then
    reaches the load, whose failure keeps the charge."""
    ended, charged = _release_outcome(DatasetRegistry(), plan_text, mechanism, eps)
    if ended is None:
        assert _release_outcome(_RowlessRegistry(), plan_text, mechanism, eps) == (_Loaded, 1)
    else:
        assert charged == 0
        assert _release_outcome(_RowlessRegistry(), plan_text, mechanism, eps) == (ended, 0)


def test_an_unknown_handle_is_refused_before_any_charge():
    assert _release_outcome(_RowlessRegistry(), "count", "laplace", 1.0, handle="ds9") == \
        (ContractViolation, 0)


def test_laplace_int_on_a_real_sum_is_refused_alike_on_neighbors():
    """A real-column sum cannot take integer noise.  The refusal comes from
    metadata, so a row holding 2.5 or a whole 2.0 gives the empty dataset's
    status, code and trace, and nothing is charged."""
    outcomes = [_fuzz_outcome(rows, "sum income", "laplace_int")
                for rows in ([], [("north", 30, 2.5)], [("north", 30, 2.0)])]
    assert outcomes[0][:2] == ("error", "request rejected") and outcomes[0][4] == []
    assert outcomes[0] == outcomes[1] == outcomes[2]


class _NoFloatSource(RandomSource):
    """A real source whose float draws raise."""

    def uniform_full(self, n=None):
        raise AssertionError("float draw in an integer release")

    signs = uniform_full


def test_laplace_int_release_draws_no_float(closing):
    registry = DatasetRegistry()
    handle = registry.register(
        make_table(_FUZZ_SCHEMA, [("north", 30, 2.5), ("south", 7, 1.0)]))
    acct = closing(Accountant())
    scope = acct.create_scope("main", PURE_EPS, 10.0)
    rng = _NoFloatSource()
    for text in ("count", "sum age", "group_by region\ncount", "distinct region\ncount"):
        out = private_release(registry, handle, parse_plan(text), "laplace_int", 0.5, scope, rng)
        assert all(v == int(v) for v in out.values), text
    with pytest.raises(AssertionError):
        private_release(registry, handle, parse_plan("count"), "laplace", 0.5, scope, rng)


def test_threads_share_one_service(closing):
    """serve answers each connection on its own thread over one service:
    concurrent opens get distinct ids and concurrent queries on one session
    all succeed.  A tiny switch interval makes interleavings likely."""
    registry = DatasetRegistry()
    handle = registry.register(make_table(_FUZZ_SCHEMA, [("north", 30, 2.5)]))
    acct = closing(Accountant())
    acct.create_scope("main", PURE_EPS, 1e9)
    svc = QueryService(registry, acct, ServiceConfig(xi=0.0, overhead=0.0))
    request = QueryRequest("count", "laplace_int", 1.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            sessions = list(pool.map(lambda _: svc.open_session(handle, "main"), range(1000)))
            responses = list(pool.map(lambda _: svc.run_query(sessions[0], request),
                                      range(1000)))
    finally:
        sys.setswitchinterval(interval)
    assert len({s.session_id for s in sessions}) == 1000
    assert len(svc.dump_sessions()["sessions"]) == 1000
    assert {r.status for r in responses} == {"ok"}


_BENCH_SCHEMA = parse_schema("age int 0 99\nregion cat north south east west\n"
                             "tier int 0 3\nincome real 0.0 200.0\nscore int 0 100\n")
#: The eight plan shapes of the benchmark's mix, with their mechanisms.
_BENCH_PLANS = (
    ("count", "laplace_int"),
    ("select_where age >= 40 and region == south\ncount", "laplace"),
    ("select_where score > 50\ngroup_by age\ncount", "noisy_histogram"),
    ("map_column income clamp 0.0 100.0\nsum income", "laplace"),
    ("distinct region tier\ncount", "laplace_int"),
    ("bernoulli_sample 0.5\ncount", "laplace"),
    ("group_by region age\ncount", "laplace"),
    ("select_where age < 50\nsum income", "laplace"),
)


def test_no_plan_step_reads_the_row_view(monkeypatch, closing):
    """Plans run on the record array: with `Table.rows` raising, every plan
    shape of the benchmark mix is still answered."""
    registry = DatasetRegistry()
    rows = [(i % 100, ("north", "south", "east", "west")[i % 4], i % 4, i * 0.5, i % 101)
            for i in range(300)]
    handle = registry.register(make_table(_BENCH_SCHEMA, rows))
    acct = closing(Accountant())
    acct.create_scope("main", PURE_EPS, 1e9)
    svc = QueryService(registry, acct, ServiceConfig(xi=1e-6, overhead=0.05),
                       clock=SimulatedClock())
    session = svc.open_session(handle, "main")

    def no_rows(table):
        raise AssertionError("a plan step read Table.rows")

    monkeypatch.setattr(Table, "rows", property(no_rows))
    for text, mechanism in _BENCH_PLANS:
        resp = svc.run_query(session, QueryRequest(text, mechanism, 1.0))
        assert resp.status == "ok", text


def test_padding_is_a_power_of_two_bucket(tmp_path, closing):
    clock = SimulatedClock()
    svc, handle, _ = _service(closing, tmp_path, [(1, 0)] * 10, clock=clock)
    session = svc.open_session(handle, "main")
    pad = svc._n_hat_for_padding(session)
    assert pad == 2 ** round(np.log2(pad))
    assert pad >= session.n_hat + 16 - 1  # bucket covers the estimate


def _paced_registry(rows):
    """A registry holding the one-column table of `rows` (c0 in [0, 100]),
    its handle, and a clock that records every `advance` in a list."""
    schema = Schema((ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=100),))
    registry = DatasetRegistry()
    handle = registry.register(make_table(schema, rows))
    clock = SimulatedClock()
    advances = []
    clock.advance = lambda dt: (advances.append(dt), SimulatedClock.advance(clock, dt))
    return registry, handle, clock, advances


def _paced_count():
    """Count the rows with c0 >= 50 of a two-row table, (10,) and (20,),
    through a paced scan; returns the count and every `advance` of the
    clock."""
    registry, handle, clock, advances = _paced_registry([(10,), (20,)])
    pred = (Comparison("c0", ">=", 50),)
    plan = TransformPlan((("select_where", pred), ("count",)))
    with paced_scans(clock, 1.0):
        v = plan.execute(registry.table(handle))
    return v.values.tolist(), advances


def test_paced_scan_costs_xi_per_row_in_one_advance(tmp_path):
    counted, advances = _paced_count()
    assert counted == [0.0]
    assert advances == [2.0]  # 2 * xi in one advance


def test_each_paced_scan_costs_xi_per_row_it_reads():
    """Two scans after a self-union: the first reads the 2n doubled rows,
    the second only the m that passed the first."""
    rows = [(10,), (20,), (60,), (70,), (80,)]
    registry, handle, clock, advances = _paced_registry(rows)
    plan = parse_plan("self_union\nselect_where c0 >= 50\nselect_where c0 < 75\ncount")
    xi = 0.25
    with paced_scans(clock, xi):
        v = plan.execute(registry.table(handle))
    n, m = len(rows), 2 * 3  # the 3 rows >= 50, each twice
    assert v.values.tolist() == [4.0]
    assert advances == [2 * n * xi, m * xi]
    assert clock.now() == pytest.approx((2 * n + m) * xi)
    # A scan refused from metadata reads no row and advances nothing.
    with paced_scans(clock, xi), pytest.raises(ContractViolation):
        parse_plan("select_where nope >= 1\ncount").execute(registry.table(handle))
    assert len(advances) == 2


def test_a_clock_needs_only_now_and_sleep_until(tmp_path, closing):
    """The service only reads the clock and sleeps on it: a clock with no
    other method answers a scan with status ok."""
    class BareClock:
        time = 0.0

        def now(self):
            return self.time

        def sleep_until(self, t):
            self.time = max(self.time, t)

    svc, handle, _ = _service(closing, tmp_path, [(1, 0), (2, 1)], clock=BareClock())
    session = svc.open_session(handle, "main")
    resp = svc.run_query(session, QueryRequest("select_where c0 >= 0\ncount", "laplace", 1.0))
    assert resp.status == "ok"


def test_schedule_overrun_takes_one_doubling_step(tmp_path, closing):
    clock = SimulatedClock()
    svc, handle, _ = _service(closing, tmp_path, [(1, 0)] * 30, clock=clock)
    session = svc.open_session(handle, "main")
    start = clock.now()
    with paced_scans(clock, 100.0 * svc._config.xi):  # every scan step overruns wildly
        svc.run_query(session,
                      QueryRequest("select_where c0 >= 0\ncount", "laplace", 1.0))
    target = clock.trace[-1][1]
    pad = svc._n_hat_for_padding(session)
    assert target == pytest.approx(start + 2.0 * pad * svc._config.xi + 5.0)


# -- postprocessing -------------------------------------------------------------------

def test_budget_status_reports_power_bound(tmp_path, closing):
    svc, handle, acct = _service(closing, tmp_path, [(1, 0)], budget=10.0,
                                 clock=SimulatedClock())
    session = svc.open_session(handle, "main")
    svc.run_query(session, QueryRequest("count", "laplace", 1.0))
    status = svc.budget_status(session)
    assert status.alpha == 0.05
    assert status.power_bound == pytest.approx(
        np.exp(status.spent) * 0.05)


# -- config and accountant construction ---------------------------------------------

def test_service_config_from_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "budgets": [{"id": "main", "kind": PURE_EPS, "budget": 4.0}],
        "xi": 0.5, "overhead": 2.0, "startup_fraction": 0.02,
        "ledger": str(tmp_path / "ledger.txt"),
        "state_dir": str(tmp_path / "state"),
    }))
    config = ServiceConfig.from_file(str(cfg_path))
    assert config.xi == 0.5 and config.overhead == 2.0
    acct = build_accountant(config)
    assert acct.remaining("main") == 4.0
    acct.scope("main").charge(1.5, "laplace")
    acct.close()
    # A rebuilt accountant picks the spend back up from the ledger.
    acct2 = build_accountant(config)
    assert acct2.spent("main") == 1.5
    assert acct2.remaining("main") == 2.5
    acct2.close()


def test_a_config_file_without_policy_numbers_loads_the_dataclass_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"budgets": [{"id": "main", "budget": 1.0}]}))
    config, default = ServiceConfig.from_file(str(path)), ServiceConfig()
    assert ((config.xi, config.overhead, config.startup_fraction)
            == (default.xi, default.overhead, default.startup_fraction))


@pytest.mark.parametrize("key", ["xi", "overhead"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
def test_a_schedule_that_does_not_pad_is_refused(tmp_path, key, value):
    """A negative xi puts the response deadline before the work ends, and a
    NaN overhead makes the padding sleep raise after the charge: either way
    a response would go out unpadded.  Zero is a valid schedule."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ContractViolation):
        ServiceConfig.from_file(str(path))
    with pytest.raises(ContractViolation):
        ServiceConfig(**{key: value})
    path.write_text(json.dumps({key: 0.0}))
    assert getattr(ServiceConfig.from_file(str(path)), key) == 0.0


@pytest.mark.parametrize("value, accepted", [
    (math.nan, False), (math.inf, False), (-math.inf, False), (-1.0, False), (2.0, False),
    (0.0, True), (0.01, True), (1.0, True),
])
def test_startup_fraction_must_lie_in_the_unit_interval(tmp_path, value, accepted):
    """NaN or an infinity made every session fail on its eps, 2 on the
    budget, and -1 silently spent the 1e-3 floor."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"startup_fraction": value}))
    if accepted:
        assert ServiceConfig.from_file(str(path)).startup_fraction == value
        assert ServiceConfig(startup_fraction=value).startup_fraction == value
        return
    with pytest.raises(ContractViolation, match="startup_fraction"):
        ServiceConfig.from_file(str(path))
    with pytest.raises(ContractViolation, match="startup_fraction"):
        ServiceConfig(startup_fraction=value)

def test_config_has_no_seed_knob(tmp_path):
    assert "seed" not in {f.name for f in
                          ServiceConfig.__dataclass_fields__.values()}


def test_config_file_with_seed_field_is_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"budgets": [], "rng_seed": 42}))
    with pytest.raises(ContractViolation):
        ServiceConfig.from_file(str(path))
