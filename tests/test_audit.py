import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

import dpcore
from dpcore import mechanisms
from dpcore.accounting import Accountant, PURE_EPS
from dpcore.audit import report as audit_report
from dpcore.audit.blackbox import (
    MechanismUnderTest,
    NeighborPair,
    OutcomeEvent,
    _percentiles,
    aggregate_pvalues,
    default_neighbor_suite,
    dp_hypothesis_test,
    event_counts,
    event_pvalues,
    event_search,
)
from dpcore.audit.gof import (
    AD_CRITICAL_99,
    _log_factorial,
    anderson_darling,
    half_binomial_tails,
    laplace_cdf,
    thinned_tails,
)
from dpcore.audit.report import audit_pair, black_box_battery
from dpcore.audit.targets import (
    half_noise_laplace_count,
    laplace_count_target,
    laplace_sum_target,
)
from dpcore.errors import ContractViolation, ParameterError
from dpcore.randomness import sample_laplace
from dpcore.relational import ColumnKind, ColumnMeta, Schema, StatVector, make_table
from dpcore.transforms import (
    _STEPS,
    Clamp,
    Comparison,
    TableMeta,
    aggregate,
    group_by,
    parse_plan,
    select_where,
    self_union,
)
from bugs import (
    accountant_bypass_laplace_count,
    data_dependent_histogram,
    linear_scale_exponential_mechanism,
)
from doubles import ScriptedSource
from oracles import (
    anderson_darling_reference,
    event_search_reference,
    exponential_mechanism_log_probabilities,
    half_binomial_tail,
    half_binomial_tail_two_sided,
    laplace_cdf_mp,
)
from propcheck import (
    expmech_ratio_check,
    sensitivity_check,
    stability_check,
)
from steps import apply


# -- goodness of fit ---------------------------------------------------------

def test_anderson_darling_matches_reference_oracle(rng):
    x = sample_laplace(rng, 1.0, size=2000)
    stat, _ = anderson_darling(x, laplace_cdf(1.0))
    assert stat == pytest.approx(anderson_darling_reference(x, laplace_cdf(1.0)),
                                 rel=1e-9)


def test_anderson_darling_critical_value_is_the_99th_percentile():
    assert AD_CRITICAL_99 == pytest.approx(3.8781250216, abs=1e-9)


def test_anderson_darling_accepts_correct_laplace(rng):
    passes = 0
    for _ in range(20):
        x = sample_laplace(rng, 2.0, size=5000)
        _, ok = anderson_darling(x, laplace_cdf(2.0))
        passes += ok
    assert passes >= 18  # 1% level: ~0.2 failures expected in 20


def test_anderson_darling_rejects_misscaled_laplace(rng):
    for _ in range(10):
        x = sample_laplace(rng, 2.0, size=5000)
        stat, ok = anderson_darling(x, laplace_cdf(1.0))  # wrong scale
        assert not ok and stat > AD_CRITICAL_99


def test_laplace_cdf_matches_high_precision():
    for x in (-5.0, -0.5, 0.0, 0.5, 5.0):
        assert laplace_cdf(2.0)(x) == pytest.approx(laplace_cdf_mp(x, 2.0), rel=1e-14)


def _tail(s, c2: int) -> np.ndarray:
    """The shipped `half_binomial_tails` on the one row `s`."""
    return half_binomial_tails(np.asarray(s)[None], [c2])[0]


def test_half_binomial_tail_is_exact_for_small_n():
    """P[Bin(N, 1/2) >= s] for every N <= 60 and every s, against the exact
    fraction sum_{k >= s} C(N, k) / 2^N."""
    for c2 in range(61):
        s = np.arange(61 - c2)
        got = _tail(s, c2)
        for si, g in zip(s.tolist(), got):
            n = si + c2
            exact = Fraction(sum(math.comb(n, k) for k in range(si, n + 1)), 2 ** n)
            assert g == pytest.approx(float(exact), rel=1e-12, abs=0), (si, c2)


@pytest.mark.parametrize("c2", [0, 1, 5, 50, 400, 2000, 4000])
def test_half_binomial_tail_matches_scipy(c2):
    for c1 in (0, 1, 5, 50, 400, 2000, 4000):
        s = np.arange(c1 + 1)
        want = stats.binom.sf(s - 1, s + c2, 0.5)
        got = _tail(s, c2)
        assert got.shape == s.shape and got[0] == pytest.approx(1.0, rel=1e-12)
        keep = want > 1e-290
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-9, atol=0)
        assert np.all(got[~keep] < 1e-280)


@pytest.mark.parametrize("c2", [*range(60), 100, 400, 1500, 2000, 4000, 10 ** 5, 10 ** 6])
def test_half_binomial_tail_one_sided_window_is_bit_identical(c2):
    """Widening the pmf window only on the side a sum runs over changes no
    value: s below, above and straddling the mean c2+1, in any order."""
    mean = c2 + 1
    w = 12 * math.isqrt(mean) + 30
    step = max(1, w // 150)
    below = np.arange(max(mean - w, 0), mean + 1, step)
    above = np.arange(mean + 1, mean + w, step)
    rng = np.random.default_rng(c2)
    cases = [below, above, np.concatenate([below, above]), below[:1], above[-1:],
             np.array([0, mean + w]), rng.permutation(np.concatenate([below, above]))]
    for s in cases:
        assert np.array_equal(_tail(s, c2), half_binomial_tail_two_sided(s, c2))


def test_log_factorial_matches_lgamma():
    """The small-n lgamma table and the Stirling series agree with
    math.lgamma on both sides of their switch and far above it."""
    n = np.concatenate([np.arange(2, 5000), 10 ** np.arange(4, 13)])
    want = np.array([math.lgamma(k + 1.0) for k in n.tolist()])
    np.testing.assert_allclose(_log_factorial(n), want, rtol=2e-15, atol=0)
    assert np.all(_log_factorial(np.array([0, 1])) == 0.0)


@pytest.mark.parametrize("c2", [10 ** 5, 10 ** 6])
def test_half_binomial_tail_matches_scipy_at_large_counts(c2):
    """Counts around the CLI default --n-test and above it, where every ln n!
    comes from the Stirling series."""
    r = math.isqrt(c2)
    s = np.arange(c2 - 10 * r, c2 + 40 * r, r // 20)
    want = stats.binom.sf(s - 1, s + c2, 0.5)
    keep = want > 1e-290
    np.testing.assert_allclose(_tail(s, c2)[keep], want[keep], rtol=1e-8, atol=0)


def test_half_binomial_tails_rows_are_the_one_row_reference_bit_for_bit():
    """Row r of `half_binomial_tails` is `oracles.half_binomial_tail(s[r],
    c2[r])` bit for bit: windows of 1 to about 1e5 cells, c2 = 0, rows whose
    s all lie above or none above c2 + 1, and rows of different widths that
    share a chunk."""
    gen = np.random.default_rng(38)
    rows = [(np.zeros(100, np.int64), 0), (np.arange(100), 0), (np.full(100, 5), 0),
            (np.full(100, 3), 1), (np.full(100, 2), 1)]
    for c2 in (1, 7, 60, 400, 4000, 10 ** 5):
        mean, sd = c2 + 1, math.isqrt(c2 + 1) + 1
        rows += [(gen.integers(mean + 1, mean + 5 * sd, 100), c2),  # all above
                 (gen.integers(max(mean - 5 * sd, 0), mean + 1, 100), c2),  # none above
                 (gen.integers(max(mean - 5 * sd, 0), mean + 5 * sd, 100), c2),
                 (np.r_[0, np.full(99, mean + 3 * sd)], c2)]
    order = gen.permutation(len(rows))
    s = np.array([rows[i][0] for i in order])
    c2 = np.array([rows[i][1] for i in order])
    got = half_binomial_tails(s, c2)
    for r in range(len(rows)):
        assert np.array_equal(got[r], half_binomial_tail(s[r], int(c2[r]))), (s[r], c2[r])
    # Narrower windows share chunks, each padded to its widest window.
    small = c2 <= 400
    many = np.tile(s[small], (40, 1))
    assert np.array_equal(half_binomial_tails(many, np.tile(c2[small], 40)),
                          np.tile(got[small], (40, 1)))


def thinned_tail_mp(n: int, c2: int, eps: float) -> float:
    """E[P[Bin(S + c2, 1/2) >= S]] over S ~ Bin(n, e^-eps): the whole double
    sum, each fair-coin tail an exact integer sum over 2^(S + c2)."""
    with mpmath.workdps(40):
        p = mpmath.exp(-eps)
        return float(sum(mpmath.binomial(n, s) * p ** s * (1 - p) ** (n - s)
                         * sum(math.comb(s + c2, j) for j in range(s, s + c2 + 1))
                         / mpmath.mpf(2) ** (s + c2) for s in range(n + 1)))


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
def test_thinned_tails_match_a_high_precision_double_sum(eps):
    """Small (n, c2) pairs, 0 on either side included, in one call, agree
    to 1e-12 relative with the exact sums, which reach down to 3e-24."""
    pairs = [(0, 0), (0, 4), (5, 0), (1, 1), (7, 3), (30, 12), (60, 45), (150, 0),
             (150, 90), (100, 200)]
    got = thinned_tails([n for n, _ in pairs], [c for _, c in pairs], -eps)
    want = [thinned_tail_mp(n, c, eps) for n, c in pairs]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
def test_thinned_tails_match_scipy_at_4000(eps):
    """n = 4000 thinned against the full sum of scipy's pmf times sf over
    [0, n], for c2 from 0 to 8000: within 1e-10 relative, or the 4e-22 that
    the window may leave out, where the result is smaller than that."""
    c2 = np.array([0, 300, 541, 1000, 1200, 1472, 1500, 2000, 2600, 4000, 8000])
    s = np.arange(4001)
    pmf = stats.binom.pmf(s, 4000, math.exp(-eps))
    want = [np.sum(pmf * stats.binom.sf(s - 1, s + c, 0.5)) for c in c2]
    np.testing.assert_allclose(thinned_tails(np.full(len(c2), 4000), c2, -eps), want,
                               rtol=1e-10, atol=4e-22)


def test_event_pvalues_are_a_function_of_the_outcomes():
    """The scoring draws nothing: two calls on the same outcomes and events
    return the same bits."""
    gen = np.random.default_rng(40)
    out1, out2 = gen.laplace(0.0, 1.0, (40, 4000)), gen.laplace(1.0, 1.0, (40, 4000))
    events = [OutcomeEvent(-0.5 + 0.02 * i, 1.5) for i in range(39)] + [
        OutcomeEvent(-math.inf, math.inf)]
    first = event_pvalues(out1, out2, events, 1.0, 0.0)
    assert np.all((first >= 0) & (first <= 1))
    assert first.tobytes() == event_pvalues(out1, out2, events, 1.0, 0.0).tobytes()


def test_audit_import_leaves_out_scipy():
    src = os.path.dirname(os.path.dirname(dpcore.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dpcore.audit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_audit_leaves_out_numpy_random():
    """`import dpcore.audit`, and a whole `dpcore audit` command, never
    import numpy.random: every audit draw comes from ChaCha20, and the import
    cost about 9 ms and 4.7 MB of each cold command."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dpcore.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dpcore.audit; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "dpcore.cli", "audit",
                          "--target", "laplace_count", "--eps-grid", "1.0", "--n-search", "1000",
                          "--n-test", "1000", "--reps", "2"],
                         env=env, capture_output=True, text=True)
    assert run.returncode in (0, 2) and "overall passed=" in run.stdout, run.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")}
    assert "numpy" in imported and "dpcore.audit.blackbox" in imported
    assert not [m for m in imported if m.split(".")[:2] == ["numpy", "random"]]


def test_event_search_leaves_out_numpy_ma():
    """`np.unique` imports numpy.ma, about 14 ms of every cold `dpcore audit`;
    the search keeps to the sort and a keep-first mask."""
    src = os.path.dirname(os.path.dirname(dpcore.__file__))
    script = (
        "import sys\n"
        "from dpcore.audit.blackbox import default_neighbor_suite, event_search\n"
        "from dpcore.audit.targets import laplace_count_target\n"
        "from dpcore.randomness import RandomSource\n"
        "from dpcore.relational import ColumnKind, ColumnMeta, Schema\n"
        "schema = Schema((ColumnMeta('c0', ColumnKind.INTEGER, lower=0, upper=100),\n"
        "                 ColumnMeta('c1', ColumnKind.INTEGER, lower=0, upper=1)))\n"
        "pair = default_neighbor_suite(schema)[1]\n"
        "event_search(laplace_count_target(), pair, 1.0, 2000, RandomSource.from_os_entropy())\n"
        "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# -- neighbor suites ---------------------------------------------------------

def test_default_suite_two_column(two_col_schema):
    suite = default_neighbor_suite(two_col_schema)
    assert [p.name for p in suite] == ["DB1~DB2", "DB2~DB3", "DB3~DB4"]
    assert suite[0].d1.rows == ()
    assert sorted(suite[2].d2.rows) == [(0, 0), (50, 0), (100, 1)]


def test_default_suite_rejects_odd_schema():
    schema = Schema((ColumnMeta("x", ColumnKind.INTEGER, lower=0, upper=1),))
    with pytest.raises(ContractViolation):
        default_neighbor_suite(schema)


def test_neighbor_pair_must_differ_by_one(two_col_schema):
    a = make_table(two_col_schema, [])
    b = make_table(two_col_schema, [(0, 0), (1, 1)])
    with pytest.raises(ContractViolation):
        NeighborPair(a, b, "bad")


def test_outcome_event_counts_closed_interval():
    """Row r counts the outcomes of row r in the closed event r."""
    events = [OutcomeEvent(0.0, 2.0), OutcomeEvent(-math.inf, 0.0), OutcomeEvent(2.0, math.inf)]
    outcomes = np.array([[-1.0, 0.0, 1.0, 2.0, 3.0], [-5.0, 0.0, 5.0, 0.5, -0.5],
                         [-1.0, 0.0, 1.0, 2.0, 3.0]])
    assert event_counts(events, outcomes).tolist() == [3, 3, 2]


# -- two-phase black-box test --------------------------------------------------

def test_event_search_degenerate_mechanism(two_col_schema, rng):
    const = MechanismUnderTest("const", lambda t, e, r: 7.0)
    suite = default_neighbor_suite(two_col_schema)
    ev = event_search(const, suite[0], 1.0, 1000, rng)
    assert (ev.lo, ev.hi) == (7.0, 7.0)


@pytest.mark.parametrize("make", [laplace_count_target, half_noise_laplace_count])
def test_run_is_the_one_outcome_case_of_run_many(make, small_tables):
    m = make()
    script = dict(uniforms=(0.25, 0.5, 0.75), bits=(0, 1))
    one = m.run(small_tables["db2"], 1.0, ScriptedSource(**script))
    assert one == float(m.run_many(small_tables["db2"], 1.0, ScriptedSource(**script), 1)[0])
    with pytest.raises(ContractViolation):
        MechanismUnderTest("neither")


@pytest.mark.parametrize("make, plan", [(laplace_count_target, "count"),
                                        (laplace_sum_target, "sum c0")])
def test_a_target_releases_the_exact_value_plus_its_noise_bit_for_bit(make, plan, small_tables):
    """The release adds the noise into its own array; the bits are those of
    the tiled exact value plus a separately drawn noise array, on every call
    and every sample size, the tiled labels of an earlier call reused or not.
    A unit uniform draws a zero noise of either sign."""
    m = make()
    script = dict(uniforms=(0.25, 1.0, 1e-300, 0.75, 1.0), bits=(0, 1, 1))
    for table, eps, n in (("db1", 0.5, 7), ("db3", 1.0, 7), ("db3", 1.0, 3), ("db4", 2.0, 7)):
        v = parse_plan(plan).execute(small_tables[table])
        tiled = np.broadcast_to(v.values, (n,))
        noise = sample_laplace(ScriptedSource(**script), n * v.l1_sensitivity / (n * eps), size=n)
        expected = tiled + noise
        out = m.run_many(small_tables[table], eps, ScriptedSource(**script), n)
        assert out.dtype == np.float64 and out.tobytes() == expected.tobytes(), (table, n)


def test_run_only_mechanism_returning_a_vector_is_refused(two_col_schema, rng):
    """A `run` that returns a 2-vector fails the same shape check as a
    `run_many` that returns the wrong number of outcomes."""
    table = default_neighbor_suite(two_col_schema)[0].d1
    for m in (MechanismUnderTest("vector", lambda t, e, r: np.zeros(2)),
              MechanismUnderTest("short", run_many=lambda t, e, r, n: np.zeros(n - 1))):
        for n in (1, 3):
            with pytest.raises(ContractViolation, match="wrong number of outcomes"):
                m.sample(table, 1.0, rng, n)


def test_event_search_requires_enough_samples(two_col_schema, rng):
    suite = default_neighbor_suite(two_col_schema)
    with pytest.raises(ContractViolation):
        event_search(laplace_count_target(), suite[0], 1.0, 999, rng)


def test_hypothesis_test_requires_enough_samples(two_col_schema, rng):
    """A test on a few samples would pass even the broken mechanism."""
    suite = default_neighbor_suite(two_col_schema)
    m = half_noise_laplace_count()
    ev = event_search(m, suite[1], 1.0, 1000, rng)
    for n_test in (0, 1, 50, 999):
        with pytest.raises(ContractViolation, match="n_test"):
            dp_hypothesis_test(m, suite[1], ev, 1.0, 0.0, n_test, rng)


def test_nan_outcomes_are_refused(two_col_schema, rng):
    def run_many(table, eps, rng, n):
        out = np.zeros(n)
        out[-1] = math.nan
        return out

    suite = default_neighbor_suite(two_col_schema)
    with pytest.raises(ContractViolation, match="NaN"):
        event_search(MechanismUnderTest("nan", run_many=run_many), suite[1], 1.0, 2000, rng)
    with pytest.raises(ContractViolation, match="NaN"):
        MechanismUnderTest("nan", lambda t, e, r: math.nan).sample(suite[1].d1, 1.0, rng, 3)
    for bad in (math.inf, -math.inf):
        with pytest.raises(ContractViolation, match="NaN or infinite"):
            MechanismUnderTest("inf", lambda t, e, r: bad).sample(suite[1].d1, 1.0, rng, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation, match="NaN or infinite"):
                event_search(MechanismUnderTest(
                    "inf", run_many=lambda t, e, r, n: np.r_[np.zeros(n - 1), bad]),
                    suite[1], 1.0, 2000, rng)


def test_null_pvalues_center_high(two_col_schema, rng):
    """The mean of 10 p-values of the correct `laplace_count` exceeds 0.3.
    A correct mechanism fails this at random: this computation, repeated
    50,000 times with OS-seeded sources, gave a mean at or below 0.3 in 55
    runs, so it fails about 0.11% of the time (95% interval 0.08-0.14%)."""
    suite = default_neighbor_suite(two_col_schema)
    m = laplace_count_target()
    ps = []
    for _ in range(10):
        ev = event_search(m, suite[1], 1.0, 5000, rng)
        ps.append(dp_hypothesis_test(m, suite[1], ev, 1.0, 0.0, 20_000, rng))
    assert float(np.mean(ps)) > 0.3


def test_half_noise_bug_yields_tiny_pvalues(two_col_schema, rng):
    suite = default_neighbor_suite(two_col_schema)
    m = half_noise_laplace_count()
    ev = event_search(m, suite[1], 1.0, 20_000, rng)
    p = dp_hypothesis_test(m, suite[1], ev, 1.0, 0.0, 50_000, rng)
    assert p < 1e-4


def _replaying(pair, out1, out2):
    """A mechanism that returns fixed outcome arrays for the two sides of `pair`."""
    return MechanismUnderTest(
        "replay", run_many=lambda table, eps, rng, n: out1 if table is pair.d1 else out2)


def _fixed_sample_pairs():
    """Neighbour-like outcome pairs: continuous, rounded and small-integer
    Laplace draws (the last with heavy ties), at a correct and a halved noise
    scale, a neighbour shift of 1 and of 3, and one pair of identical sets."""
    gen = np.random.default_rng(20181015)
    pairs = []
    for kind in ("continuous", "rounded", "small-int"):
        for n in (2000, 50_000):
            for eps in (0.5, 1.0, 2.0):
                for scale, shift in ((1.0, 1.0), (0.5, 1.0), (1.0, 3.0), (0.5, 3.0)):
                    a = gen.laplace(0.0, scale / eps, n)
                    b = shift + gen.laplace(0.0, scale / eps, n)
                    if kind == "rounded":
                        a, b = np.round(a, 1), np.round(b, 1)
                    elif kind == "small-int":
                        a, b = np.clip(np.rint(a), -2, 2), np.clip(np.rint(b), -2, 5)
                    pairs.append((f"{kind}-n{n}-eps{eps}-x{scale}-d{shift}", eps, a, b))
            same = np.rint(gen.laplace(0.0, 1.0, 2000))
            pairs.append((f"{kind}-identical-n2000", 1.0, same, same.copy()))
    return pairs


def test_event_search_matches_reference_loop(two_col_schema, rng):
    """The array search picks the same event, ties included, as the
    one-candidate-at-a-time loop in `oracles.event_search_reference`."""
    pair = default_neighbor_suite(two_col_schema)[1]
    cases = _fixed_sample_pairs()
    assert len(cases) >= 60
    for name, eps, out1, out2 in cases:
        ev = event_search(_replaying(pair, out1, out2), pair, eps, len(out1), rng)
        assert (ev.lo, ev.hi) == event_search_reference(out1, out2, eps), name


def _degenerate_cases():
    gen = np.random.default_rng(7)
    constant = np.full(1000, 3.5)
    # At eps = 8 the floor 0.001 * n * e^8 exceeds n: no interval is eligible.
    spread1, spread2 = gen.laplace(0.0, 1.0, 1000), gen.laplace(1.0, 1.0, 1000)
    return [(1.0, constant, constant.copy(), (3.5, 3.5)),
            (8.0, spread1, spread2, (-math.inf, math.inf))]


def test_event_search_degenerate_cases_match_reference_loop(two_col_schema, rng):
    pair = default_neighbor_suite(two_col_schema)[1]
    for eps, out1, out2, want in _degenerate_cases():
        ev = event_search(_replaying(pair, out1, out2), pair, eps, 1000, rng)
        assert (ev.lo, ev.hi) == want == event_search_reference(out1, out2, eps)


def test_event_search_raises_no_warning(two_col_schema, rng):
    """The count matrix holds cells with j < i; they must be counted 0, not
    negative, so that no score divides by zero."""
    pair = default_neighbor_suite(two_col_schema)[1]
    cases = [(eps, a, b) for _, eps, a, b in _fixed_sample_pairs()]
    cases += [(eps, a, b) for eps, a, b, _ in _degenerate_cases()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps, out1, out2 in cases:
            event_search(_replaying(pair, out1, out2), pair, eps, len(out1), rng)


def test_percentiles_match_np_quantile():
    for name, _, out1, out2 in _fixed_sample_pairs():
        pooled = np.sort(np.concatenate([out1, out2]))
        want = np.quantile(pooled, np.linspace(0.0, 1.0, 101))
        assert np.array_equal(_percentiles(pooled), want), name


def test_constant_mechanism_is_trivially_private(two_col_schema, rng):
    const = MechanismUnderTest("const", lambda t, e, r: 7.0)
    suite = default_neighbor_suite(two_col_schema)
    ev = event_search(const, suite[0], 1.0, 1000, rng)
    assert dp_hypothesis_test(const, suite[0], ev, 1.0, 0.0, 2000, rng) == 1.0


def test_aggregate_pvalues_policies():
    v = aggregate_pvalues([0.5, 0.6, 0.7])
    assert v.mean_pass and v.bonferroni_pass
    # The two rules can disagree either way, and both are reported.
    v = aggregate_pvalues([0.2] * 10)
    assert not v.mean_pass and v.bonferroni_pass
    v = aggregate_pvalues([0.9, 0.9, 1e-6])
    assert v.mean_pass and not v.bonferroni_pass and v.bonferroni_min_p == 1e-6
    with pytest.raises(ContractViolation):
        aggregate_pvalues([])


def test_audit_pair_flags_bug_and_reports_counterexample(two_col_schema, rng):
    suite = default_neighbor_suite(two_col_schema)
    entry = audit_pair(half_noise_laplace_count(), suite[1], 1.0, rng,
                       n_search=5000, n_test=20_000, repetitions=5)
    assert not entry.passed
    assert entry.counterexample is not None
    ce = entry.counterexample
    assert ce.p_value < 1e-3
    assert entry.to_lines()[-1] == (f"test={entry.name} counterexample pair={suite[1].name} "
                                    f"event={ce.event.describe()} p={ce.p_value!r}")


def test_battery_passes_correct_mechanism(two_col_schema, rng):
    suite = default_neighbor_suite(two_col_schema)
    report = black_box_battery(laplace_count_target(), suite, [1.0], rng,
                               n_search=5000, n_test=20_000, repetitions=10)
    assert report.passed and report.exit_code == 0
    assert "overall passed=True" in report.to_text()


def test_battery_runs_both_phases_at_the_claimed_eps(two_col_schema, rng):
    """Every search call and every test call runs the mechanism at its
    entry's epsilon: 4 calls per pair per epsilon, and one entry each."""
    target = laplace_count_target()
    seen = []

    def run_many(table, eps, rng, n):
        seen.append(eps)
        return target.run_many(table, eps, rng, n)

    suite = default_neighbor_suite(two_col_schema)[:2]
    report = black_box_battery(MechanismUnderTest("recording", run_many=run_many), suite,
                               [0.5, 1.0], rng, n_search=2000, n_test=4000, repetitions=3)
    assert seen == [0.5] * 8 + [1.0] * 8
    names = [e.name for e in report.entries]
    assert names == [f"recording/{p.name}/eps={eps}" for eps in (0.5, 1.0) for p in suite]
    assert not any("/headroom" in n or "/tested=" in n for n in names)


def test_battery_flags_half_noise_bug(two_col_schema, rng):
    suite = default_neighbor_suite(two_col_schema)
    report = black_box_battery(half_noise_laplace_count(), suite, [1.0], rng,
                               n_search=5000, n_test=20_000, repetitions=5)
    assert not report.passed and report.exit_code == 2


def test_battery_flags_a_halved_scale_in_the_shipped_release(two_col_schema, rng,
                                                             monkeypatch):
    """The built-in targets release through `mechanisms.release`, so a sampler
    bug in the code that ships fails their audit: with the mechanisms'
    `sample_laplace` at half the scale, the correct `laplace_count` is
    flagged, and each of its `run_many` calls made one release of n values."""
    shipped, release = mechanisms.sample_laplace, mechanisms.release
    releases, calls = [], []

    def counting_release(vector, *args):
        releases.append(len(vector))
        return release(vector, *args)

    monkeypatch.setattr(mechanisms, "sample_laplace",
                        lambda rng, scale, size=None: shipped(rng, scale / 2, size=size))
    monkeypatch.setattr(mechanisms, "release", counting_release)
    target = laplace_count_target()

    def run_many(table, eps, rng, n):
        calls.append(n)
        return target.run_many(table, eps, rng, n)

    report = black_box_battery(MechanismUnderTest(target.name, run_many=run_many),
                               default_neighbor_suite(two_col_schema), [1.0], rng,
                               n_search=5000, n_test=20_000, repetitions=5)
    assert not report.passed and report.exit_code == 2
    assert len(calls) == 12 and releases == calls  # 3 pairs x 2 sides x 2 phases


def test_builtin_targets_refuse_eps_below_the_release_floor(small_tables, rng):
    """A target's release is a query's: an eps/sensitivity under the floor
    is refused before it charges or samples."""
    with pytest.raises(ParameterError, match="floor"):
        laplace_count_target().run_many(small_tables["db2"], 1e-4, rng, 10)
    with pytest.raises(ParameterError, match="floor"):
        laplace_sum_target().run_many(small_tables["db2"], 0.05, rng, 10)


def _counting_mechanism(calls):
    """run_many hands out 0, 1, 2, ... across calls, so every outcome is distinct."""
    def run_many(table, eps, rng, n):
        start = sum(n for _, n in calls)
        calls.append((table, n))
        return np.arange(start, start + n, dtype=np.float64)

    return MechanismUnderTest("counting", run_many=run_many)


def _record_slices(monkeypatch):
    """Record the outcome slices each repetition searches and tests on: a
    `select_event` call's, and each row of an `event_pvalues` call's."""
    seen = {"search": [], "test": []}

    def search(out1, out2, *args):
        seen["search"].append((out1.copy(), out2.copy()))
        return select_event(out1, out2, *args)

    def test(out1, out2, *args):
        seen["test"].extend(zip(out1.copy(), out2.copy()))
        return event_pvalues(out1, out2, *args)

    select_event, event_pvalues = audit_report.select_event, audit_report.event_pvalues
    monkeypatch.setattr(audit_report, "select_event", search)
    monkeypatch.setattr(audit_report, "event_pvalues", test)
    return seen


@pytest.mark.parametrize("n_search, n_test, reps, sizes", [
    (2000, 4000, 40, [80_000, 80_000, 160_000, 160_000]),
    (1000, 100_000, 3, [2000, 2000, 200_000, 200_000, 1000, 1000, 100_000, 100_000]),
], ids=["one-group", "groups-of-two"])
def test_audit_pair_draws_a_group_in_one_call_per_side_and_phase(
        two_col_schema, rng, monkeypatch, n_search, n_test, reps, sizes):
    """A group of 2^18 // max(n_search, n_test) repetitions draws each
    side's search outcomes, then its test outcomes, in one run_many call;
    every repetition searches and tests on its own disjoint slices, and
    together they use every outcome drawn once."""
    calls = []
    seen = _record_slices(monkeypatch)
    pair = default_neighbor_suite(two_col_schema)[1]
    entry = audit_pair(_counting_mechanism(calls), pair, 1.0, rng,
                       n_search=n_search, n_test=n_test, repetitions=reps)
    assert len(entry.p_values) == reps
    assert [n for _, n in calls] == sizes
    assert [t is pair.d1 for t, _ in calls] == [True, False] * (len(sizes) // 2)
    assert len(seen["search"]) == len(seen["test"]) == reps
    drawn = np.arange(sum(sizes), dtype=np.float64)
    used = []
    for phase, n in (("search", n_search), ("test", n_test)):
        for out1, out2 in seen[phase]:
            assert len(out1) == len(out2) == n
            used += [out1, out2]
    assert np.array_equal(np.sort(np.concatenate(used)), drawn)


def test_battery_makes_four_sampler_calls_per_pair(two_col_schema, rng):
    calls = []
    report = black_box_battery(_counting_mechanism(calls), default_neighbor_suite(two_col_schema),
                               [1.0], rng, n_search=2000, n_test=4000, repetitions=40)
    assert len(report.entries) == 3 and len(calls) == 12


def test_audit_pair_refuses_few_samples_and_nonfinite_outcomes(two_col_schema, rng):
    pair = default_neighbor_suite(two_col_schema)[1]
    calls = []
    for n_search, n_test in ((999, 4000), (2000, 999), (0, 0)):
        with pytest.raises(ContractViolation, match="must be at least 1000"):
            audit_pair(_counting_mechanism(calls), pair, 1.0, rng,
                       n_search=n_search, n_test=n_test, repetitions=3)
    assert calls == []
    for bad in (math.nan, math.inf, -math.inf):
        m = MechanismUnderTest("bad", run_many=lambda t, e, r, n: np.r_[np.zeros(n - 1), bad])
        with pytest.raises(ContractViolation, match="NaN or infinite"):
            audit_pair(m, pair, 1.0, rng, n_search=2000, n_test=4000, repetitions=3)


# -- white-box property checks ----------------------------------------------------

def _small_schema():
    return Schema((
        ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=3),
        ColumnMeta("c1", ColumnKind.INTEGER, lower=0, upper=1),
    ))


_POOL = [(0, 0), (1, 1), (2, 0), (3, 1)]


def test_stability_check_select_where_is_one_stable():
    pred = (Comparison("c0", ">=", 2),)
    res = stability_check(lambda t: apply(select_where, t, pred), 1.0,
                          _small_schema(), _POOL, max_rows=3, max_k=2)
    assert res.passed


def test_stability_check_group_by_needs_factor_two():
    chain = lambda t: apply(group_by, t, ["c1"])
    assert stability_check(chain, 2.0, _small_schema(), _POOL,
                           max_rows=3, max_k=2).passed
    under = stability_check(chain, 1.0, _small_schema(), _POOL,
                            max_rows=3, max_k=2)
    assert not under.passed
    assert under.witness is not None  # concrete violating pair reported


def test_stability_check_five_self_unions():
    def chain(t):
        for _ in range(5):
            t = apply(self_union, t)
        return t
    assert stability_check(chain, 32.0, _small_schema(), _POOL,
                           max_rows=2, max_k=1).passed
    res = stability_check(chain, 31.0, _small_schema(), _POOL,
                          max_rows=2, max_k=1)
    assert not res.passed
    rows_a, rows_b, k = res.witness
    assert abs(32 * len(rows_a) - 32 * len(rows_b)) == 32 * k  # witness is real


def test_sensitivity_check_sum_pipeline():
    pipeline = lambda t: apply(aggregate, apply(self_union, t), "sum", "c0")
    assert sensitivity_check(pipeline, 6.0, _small_schema(), _POOL,
                             max_rows=3, max_k=2).passed  # 2 * max|c0| = 6
    assert not sensitivity_check(pipeline, 5.0, _small_schema(), _POOL,
                                 max_rows=3, max_k=2).passed


def test_sensitivity_check_catches_understated_claim():
    """A pipeline whose *reported* sensitivity is too small fails even if
    the observed movement happens to stay within the claim."""
    def lying(t):
        v = apply(aggregate, t, "count")
        return StatVector(v.values, 0.25, v.dimension_labels)
    res = sensitivity_check(lying, 1.0, _small_schema(), _POOL,
                            max_rows=2, max_k=1)
    assert res.passed is False or res.worst_observed <= res.worst_bound
    # The reported-claim cross-check is the part that must trip:
    assert not sensitivity_check(lying, 0.5, _small_schema(), _POOL,
                                 max_rows=2, max_k=1).passed


_CLAIM_SCHEMA = Schema((
    ColumnMeta("k", ColumnKind.INTEGER, lower=-3, upper=2),
    ColumnMeta("n", ColumnKind.INTEGER, lower=0, upper=3),
))
_CLAIM_POOL = [(-3, 0), (2, 3), (0, 2), (1, 1)]


@pytest.mark.parametrize("text", [
    "count", "sum k", "self_union\ncount", "group_by n\nsum k", "select_where n < 2.5\nsum n",
    "select_where k > -1.5\nsum k", "map_column k clamp 0 1\nsum k", "distinct n\ncount",
])
def test_plan_claim_bounds_every_small_neighbour_pair(text):
    """Each plan's own claim, from `check`, bounds its exact StatVectors on
    every pair of small tables, exhaustively (integer values only, so no
    rounding enters)."""
    plan = parse_plan(text)
    res = sensitivity_check(plan.execute, plan.check(_CLAIM_SCHEMA).l1_sensitivity,
                            _CLAIM_SCHEMA, _CLAIM_POOL, max_rows=3, max_k=2)
    assert res.passed, res


@pytest.mark.parametrize("kind, args", [
    ("select_where", ((Comparison("n", "<", 2.5),),)), ("project", (("k",),)),
    ("distinct", (("n",),)), ("self_union", ()), ("group_by", (("n",),)),
    ("map_column", ("k", Clamp(0, 1))),
])
def test_step_stability_bounds_every_small_neighbour_pair(kind, args):
    """Each step's tracked stability, from its metadata rule, bounds the
    distance of its outputs on every pair of small tables, exhaustively."""
    rule = _STEPS[kind][1]
    claimed = rule(TableMeta(_CLAIM_SCHEMA), *args)[0].stability
    res = stability_check(lambda t: apply(rule, t, *args), claimed, _CLAIM_SCHEMA, _CLAIM_POOL,
                          max_rows=3, max_k=2)
    assert res.passed, res


# -- exponential mechanism ratio checks ----------------------------------------------

def test_expmech_ratio_check_passes_log_domain_implementation(rng):
    res = expmech_ratio_check(exponential_mechanism_log_probabilities, rng)
    assert res.passed, res


def test_expmech_ratio_check_flags_linear_scale_bug(rng):
    res = expmech_ratio_check(linear_scale_exponential_mechanism, rng)
    assert not res.passed


# -- the test-only bugs are caught ----------------------------------------------------

def test_data_dependent_histogram_caught_by_cell_constancy(rng):
    schema = Schema((
        ColumnMeta("k", ColumnKind.CATEGORICAL, values=("a", "b")),
        ColumnMeta("v", ColumnKind.INTEGER, lower=0, upper=9),
    ))
    d1 = make_table(schema, [("a", 1)])
    d2 = make_table(schema, [("a", 1), ("b", 2)])
    bug = data_dependent_histogram("k")
    cells1 = set(bug(d1, 1.0, rng))
    cells2 = set(bug(d2, 1.0, rng))
    assert cells1 != cells2  # the violation: cell set tracks the data
    # The shipped histogram keeps the full declared cell set on both sides.
    v1 = apply(aggregate, apply(group_by, d1, ["k"]), "count")
    v2 = apply(aggregate, apply(group_by, d2, ["k"]), "count")
    assert v1.dimension_labels == v2.dimension_labels


def test_accountant_bypass_caught_by_mediation_check(two_col_schema, rng, tmp_path):
    acct = Accountant(ledger_path=str(tmp_path / "l.txt"))
    acct.create_scope("s", PURE_EPS, 1e9)
    scope = acct.scope("s")
    bug = accountant_bypass_laplace_count(scope)
    t = make_table(two_col_schema, [(1, 0)])
    for _ in range(5):
        bug.run(t, 1.0, rng)
    # Five releases, zero ledger entries: mediation violated.
    assert len(acct.ledger) == 0
    acct.close()
