"""End-to-end acceptance criteria.

Each test exercises one headline guarantee at full scale and emits a single
[PASS]/[FAIL] line on the real terminal (bypassing capture), so a log of
this module reads as a ten-line scorecard.
"""

import math
import threading
import time

import numpy as np
import pytest

import mpmath
from dpcore.accounting import Accountant, PURE_EPS, power_bound
from dpcore.audit.blackbox import default_neighbor_suite
from dpcore.audit.gof import AD_CRITICAL_99, anderson_darling, laplace_cdf
from dpcore.audit.report import black_box_battery
from dpcore.audit.targets import half_noise_laplace_count, laplace_count_target
from dpcore.mechanisms import noisy_histogram
from dpcore.randomness import RandomSource, sample_laplace
from dpcore.registry import DatasetRegistry
from dpcore.relational import ColumnKind, ColumnMeta, Schema, StatVector, make_table
from dpcore.service import QueryRequest, QueryService, ServiceConfig
from dpcore.transforms import aggregate, group_by, self_union
from doubles import ScriptedSource, SimulatedClock, paced_scans
from oracles import (exponential_mechanism_log_probabilities, linear_query_epsilon, log_add,
                     max_column_l1, replay_spent)
from propcheck import expmech_ratio_check, stability_check


@pytest.fixture
def announce(capsys):
    def emit(ok: bool, text: str, t0: float) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{verdict}] {text} ({time.perf_counter() - t0:.1f}s)")
        assert ok, text
    return emit


def _rng():
    return RandomSource.from_os_entropy()


# -- 1. sampler goodness of fit -------------------------------------------------

def test_acceptance_sampler_goodness_of_fit(announce):
    """At least 97 of 100 correct samples pass a 1%-level test, so a correct
    sampler fails this criterion with probability P[Bin(100, 0.01) >= 4],
    about 1.84%, by design."""
    t0 = time.perf_counter()
    rng = _rng()
    n, runs, scale = 1_000_000, 100, 1.7
    correct_pass = 0
    for _ in range(runs):
        x = sample_laplace(rng, scale, size=n)
        _, ok = anderson_darling(x, laplace_cdf(scale))
        correct_pass += ok
    misscaled_fail = 0
    for _ in range(runs):
        x = sample_laplace(rng, scale * 0.95, size=n)  # 5% scale bug
        _, ok = anderson_darling(x, laplace_cdf(scale))
        misscaled_fail += not ok
    elapsed = time.perf_counter() - t0
    ok = correct_pass >= 97 and misscaled_fail >= 99 and elapsed <= 120
    announce(ok, "criterion 1: Anderson-Darling battery -- "
                 f"{correct_pass}/100 correct accepted, "
                 f"{misscaled_fail}/100 misscaled rejected", t0)


# -- 2. black-box DP violation search ---------------------------------------------

def test_acceptance_black_box_harness(announce, two_col_schema):
    t0 = time.perf_counter()
    rng = _rng()
    suite = default_neighbor_suite(two_col_schema)
    bad = black_box_battery(half_noise_laplace_count(), suite, [1.0], rng,
                            n_search=50_000, n_test=100_000, repetitions=5)
    good = black_box_battery(laplace_count_target(), suite, [1.0], rng,
                             n_search=50_000, n_test=100_000, repetitions=50)
    elapsed = time.perf_counter() - t0
    min_mean = min(e.statistic for e in good.entries)
    ok = (not bad.passed) and good.passed and min_mean > 0.3 and elapsed <= 600
    announce(ok, "criterion 2: black-box harness -- half-scale bug flagged, "
                 f"correct mechanism min mean-p {min_mean:.3f} over 50 reps", t0)


# -- 3. stability tracking ----------------------------------------------------------

def test_acceptance_stability_witness(announce):
    t0 = time.perf_counter()
    schema = Schema((
        ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=3),
        ColumnMeta("c1", ColumnKind.INTEGER, lower=0, upper=1),
    ))

    def chain(t):
        for _ in range(5):
            t = self_union(t)
        return t

    t = make_table(schema, [(1, 0)])
    claimed = chain(t).stability
    res = stability_check(chain, 32.0, schema, [(0, 0), (1, 1), (2, 0)],
                          max_rows=2, max_k=1)
    tight = stability_check(chain, 31.0, schema, [(0, 0), (1, 1), (2, 0)],
                            max_rows=2, max_k=1)
    ok = claimed == 32 and res.passed and not tight.passed \
        and res.worst_observed == 32.0
    announce(ok, "criterion 3: five self-unions tracked at stability 32, "
                 "witnessed empirically and tight", t0)


# -- 4. sensitivity of a doubled sum ---------------------------------------------------

def test_acceptance_doubled_sum_sensitivity(announce):
    t0 = time.perf_counter()
    schema = Schema((ColumnMeta("wage", ColumnKind.INTEGER,
                                lower=0, upper=300_000),))
    t = make_table(schema, [(120_000,), (80_000,)])
    v = aggregate(self_union(t), "sum", "wage")
    # Empirical cross-check at a scaled-down domain (same pipeline shape).
    small = Schema((ColumnMeta("wage", ColumnKind.INTEGER, lower=0, upper=3),))
    from propcheck import sensitivity_check
    emp = sensitivity_check(lambda tt: aggregate(self_union(tt), "sum", "wage"),
                            6.0, small, [(0,), (1,), (3,)], max_rows=3, max_k=2)
    ok = v.l1_sensitivity == 600_000.0 and emp.passed
    announce(ok, "criterion 4: doubled SUM(wage) claims sensitivity 600000; "
                 "scaled-down empirical check agrees", t0)


# -- 5. accounting exactness and concurrency --------------------------------------------

def test_acceptance_accounting_exact_and_concurrent(announce, closing):
    t0 = time.perf_counter()
    rng = np.random.default_rng()  # oracle-side randomness only
    exact = True
    for _ in range(1000):
        nr, nc = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        Q = rng.integers(-5, 6, size=(nr, nc)).astype(float)
        alphas = rng.uniform(0.1, 10.0, size=nr)
        if linear_query_epsilon(Q, alphas) != pytest.approx(
                max_column_l1(Q, alphas), rel=1e-12):
            exact = False
            break
    acct = closing(Accountant())
    acct.create_scope("s", PURE_EPS, math.inf)
    h = acct.scope("s")

    def worker():
        for _ in range(10_000):
            h.charge(0.001, "laplace")

    threads = [threading.Thread(target=worker) for _ in range(16)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    conserved = (
        len(acct.ledger) == 160_000
        and replay_spent(list(acct.ledger))["s"] == acct.spent("s")
    )
    ok = exact and conserved
    announce(ok, "criterion 5: exact epsilon on 1000 random query matrices; "
                 "160000 concurrent charges conserved", t0)


# -- 6. log-domain arithmetic ---------------------------------------------------------

def test_acceptance_log_domain_arithmetic(announce):
    t0 = time.perf_counter()
    mpmath.mp.dps = 50
    grid = np.concatenate([
        np.linspace(-700.0, 700.0, 141),
        np.array([-700.0, -699.5, 699.5, 700.0, 0.0, 1e-300, -1e-300]),
    ])
    worst = 0.0
    for x in grid:
        for y in grid:
            got = log_add(float(x), float(y))
            want = float(mpmath.log(mpmath.exp(mpmath.mpf(float(x)))
                                    + mpmath.exp(mpmath.mpf(float(y)))))
            # Relative near +/-700, absolute where the true sum is ~0.
            err = abs(got - want) / max(abs(want), 1.0)
            worst = max(worst, err)
    holes = expmech_ratio_check(exponential_mechanism_log_probabilities,
                                _rng(), trials=400)
    ok = worst < 1e-12 and holes.passed
    announce(ok, f"criterion 6: log_add worst error {worst:.2e} "
                 "across +/-700 exponent grid; exponential-mechanism ratio/"
                 "hole sweep clean at eps down to 1e-6", t0)


# -- 7. interpretive power bounds -------------------------------------------------------

def test_acceptance_power_bounds(announce):
    t0 = time.perf_counter()
    at_half = power_bound(0.5)
    at_one = power_bound(1.0)
    ok = (abs(at_half - 0.0824) < 5e-5 and abs(at_one - 0.1359) < 5e-5
          and power_bound(0.0) == 0.05)
    announce(ok, f"criterion 7: membership-test power bounds {at_half:.4f} "
                 f"at eps=0.5 and {at_one:.4f} at eps=1.0", t0)


# -- 8. histogram noise calibration -------------------------------------------------------

def test_acceptance_histogram_calibration(announce, closing):
    t0 = time.perf_counter()
    rng = _rng()
    schema = Schema((
        ColumnMeta("k", ColumnKind.INTEGER, lower=0, upper=999),
        ColumnMeta("v", ColumnKind.INTEGER, lower=0, upper=1),
    ))
    t = make_table(schema, [(5, 1), (5, 0), (600, 1)])
    counts = aggregate(group_by(t, ["k"]), "count")  # 1000 cells, sens 2
    empty_counts = aggregate(group_by(make_table(schema, []), ["k"]), "count")
    acct = closing(Accountant())
    acct.create_scope("s", PURE_EPS, math.inf)
    scope = acct.scope("s")
    eps = 1.0
    draws = np.concatenate([
        noisy_histogram(counts, eps, scope, rng).values - counts.values
        for _ in range(1000)
    ])  # 10^6 noise values
    var = float(np.var(draws))
    target = 2.0 * (counts.l1_sensitivity / eps) ** 2
    constant_cells = (counts.dimension_labels == empty_counts.dimension_labels
                      and len(counts.dimension_labels) == 1000)
    ok = abs(var - target) / target < 0.05 and constant_cells
    announce(ok, f"criterion 8: histogram noise variance {var:.2f} vs target "
                 f"{target:.0f} (within 5%) over 10^6 draws; cell set "
                 "data-independent", t0)


# -- 9. timing side channel ------------------------------------------------------------

def _trace(closing, tmp_path, rows, sub):
    d = tmp_path / sub
    d.mkdir()
    (d / "data.csv").write_text("c0,c1\n" + "".join(f"{a},{b}\n" for a, b in rows))
    (d / "schema.txt").write_text("c0 int 0 100\nc1 int 0 1\n")
    clock = SimulatedClock()
    registry = DatasetRegistry()
    acct = closing(Accountant())
    acct.create_scope("main", PURE_EPS, 1e9)
    svc = QueryService(registry, acct, ServiceConfig(xi=1.0, overhead=5.0),
                       clock=clock, rng=ScriptedSource(bits=(2, 7, 1, 8)))
    handle = svc.ingest(str(d / "data.csv"), str(d / "schema.txt"))
    session = svc.open_session(handle, "main")
    with paced_scans(clock, 1.0):
        for plan, mech, eps in [
            ("select_where c0 >= 10\ncount", "laplace", 0.5),
            ("sum c1", "laplace", 0.5),
            ("group_by c1\ncount", "noisy_histogram", 1.0),
            ("definitely not a plan", "laplace", 0.5),
            ("count", "no_such_mechanism", 0.5),
        ]:
            svc.run_query(session, QueryRequest(plan, mech, eps))
    return clock.trace_bytes()


def test_acceptance_constant_time_schedule(announce, tmp_path, closing):
    t0 = time.perf_counter()
    rows = [(i % 100, i % 2) for i in range(60)]
    trace_a = _trace(closing, tmp_path, rows, "a")
    trace_b = _trace(closing, tmp_path, rows + [(42, 1)], "b")  # add/remove neighbor
    ok = trace_a == trace_b and len(trace_a) > 0
    announce(ok, "criterion 9: full response-time traces byte-identical "
                 "across neighboring datasets, success and error paths alike", t0)


# -- 10. totality on the empty database ----------------------------------------------------

def test_acceptance_empty_input_totality(announce, tmp_path, two_col_schema, closing):
    t0 = time.perf_counter()
    (tmp_path / "data.csv").write_text("c0,c1\n")
    (tmp_path / "schema.txt").write_text("c0 int 0 100\nc1 int 0 1\n")
    registry = DatasetRegistry()
    acct = closing(Accountant())
    acct.create_scope("main", PURE_EPS, 1e9)
    svc = QueryService(registry, acct, ServiceConfig(xi=1.0, overhead=5.0),
                       clock=SimulatedClock())
    handle = svc.ingest(str(tmp_path / "data.csv"), str(tmp_path / "schema.txt"))
    session = svc.open_session(handle, "main")
    plans = [
        ("count", "laplace"),
        ("sum c0", "laplace"),
        ("select_where c0 >= 5 and c1 == 0\ncount", "laplace"),
        ("project c1\ncount", "laplace"),
        ("distinct c0\ncount", "laplace_int"),
        ("self_union\nsum c1", "laplace"),
        ("group_by c1\ncount", "noisy_histogram"),
        ("bernoulli_sample 0.5\ncount", "laplace"),
        ("map_column c0 clamp 0 10\nsum c0", "laplace"),
    ]
    all_ok = True
    for plan, mech in plans:
        resp = svc.run_query(session, QueryRequest(plan, mech, 1.0))
        all_ok = all_ok and resp.status == "ok"
    # The empty table is also a first-class citizen of the audit suite (DB1).
    suite = default_neighbor_suite(two_col_schema)
    all_ok = all_ok and suite[0].d1.rows == ()
    announce(all_ok, "criterion 10: every pipeline stage and mechanism total "
                     "on the empty database", t0)
