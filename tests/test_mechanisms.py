import math

import numpy as np
import pytest
from scipy import stats

from dpcore.accounting import Accountant, PURE_EPS
from dpcore.errors import BudgetExceededError, ContractViolation, ParameterError
from dpcore.mechanisms import (
    EPSILON_SENSITIVITY_FLOOR,
    MECHANISMS,
    laplace_mechanism,
    noisy_histogram,
    release,
)
from dpcore.relational import ColumnKind, ColumnMeta, Schema, StatVector, make_table
from dpcore.transforms import aggregate, group_by
from doubles import ScriptedSource, zero_noise_source
from oracles import (exponential_mechanism_log_probabilities, logsumexp_mp,
                     two_sided_geometric_pmf)


def _vec(values, sens=1.0):
    values = np.asarray(values, dtype=float)
    return StatVector(values, sens, tuple(f"d{i}" for i in range(len(values))))


# -- the epsilon floor ---------------------------------------------------------

def test_epsilon_floor_rejects_absurd_noise_scales(scope):
    v = _vec([5.0], sens=1.0)
    with pytest.raises(ParameterError):
        laplace_mechanism(v, 0.999e-3, scope, zero_noise_source())
    # Exactly at the floor is allowed.
    out = laplace_mechanism(v, EPSILON_SENSITIVITY_FLOOR, scope, zero_noise_source())
    assert out.values.tolist() == [5.0]


def test_epsilon_floor_scales_with_sensitivity(scope):
    v = _vec([5.0], sens=1000.0)
    with pytest.raises(ParameterError):
        laplace_mechanism(v, 0.5, scope, zero_noise_source())  # 0.5/1000 < 1e-3
    laplace_mechanism(v, 1.0, scope, zero_noise_source())  # 1/1000 ok


# -- laplace ---------------------------------------------------------------------

def test_laplace_charges_eps_and_adds_scaled_noise(accountant, scope):
    v = _vec([10.0, 20.0], sens=2.0)
    src = ScriptedSource(uniforms=(math.exp(-1.0),), bits=(0,))  # one positive unit draw
    out = laplace_mechanism(v, 0.5, scope, src)
    # noise = sign * -scale * ln(u) = +4.0 with scale = sens/eps = 4
    assert out.values.tolist() == [14.0, 24.0]
    assert accountant.spent("main") == 0.5
    assert out.charge.amount == 0.5 and out.charge.kind == PURE_EPS


def test_laplace_never_clamps_or_truncates(scope):
    v = _vec([0.0], sens=1.0)
    src = ScriptedSource(uniforms=(math.exp(-5.0),), bits=(1,))  # negative sign -> -5
    out = laplace_mechanism(v, 1.0, scope, src)
    assert out.values.tolist() == [-5.0]  # negative counts are released as-is


def test_laplace_discretize_rounds(scope):
    """discretize adds one exact discrete Laplace draw.  At scale 1 these six
    bits draw +1: U = 0, kept; V = 1 (the first exp(-1) coin stops at K = 3,
    the second at K = 2); positive sign.  Float noise would be 0 here."""
    v = _vec([10.0], sens=1.0)
    src = ScriptedSource(uniforms=(1.0,), bits=(0, 0, 1, 1, 0, 0))
    out = laplace_mechanism(v, 1.0, scope, src, discretize=True)
    assert out.values.tolist() == [11.0]


def test_laplace_int_refuses_real_valued_statistics(tmp_path, rng):
    """Integer noise is private only on integer values.  A real-column sum
    is refused from its metadata even when its value is whole, and so is a
    vector with a fractional value, both before the charge."""
    path = tmp_path / "l.txt"
    acct = Accountant(ledger_path=str(path))
    scope = acct.create_scope("main", PURE_EPS, 10.0)
    schema = Schema((ColumnMeta("x", ColumnKind.REAL, lower=0.0, upper=5.0),
                     ColumnMeta("k", ColumnKind.INTEGER, lower=0, upper=5)))
    t = make_table(schema, [(2.0, 1), (3.0, 2)])
    real_sum = aggregate(t, "sum", "x")
    assert real_sum.values.tolist() == [5.0] and not real_sum.integral
    for v in (real_sum, _vec([0.5])):
        with pytest.raises(ContractViolation):
            laplace_mechanism(v, 1.0, scope, rng, discretize=True)
    assert acct.ledger == () and path.read_text() == ""
    int_sum = aggregate(t, "sum", "k")
    assert int_sum.integral and aggregate(t, "count").integral
    out = laplace_mechanism(int_sum, 1.0, scope, rng, discretize=True)
    assert out.values[0] == int(out.values[0]) and len(acct.ledger) == 1
    acct.close()


def test_the_ledger_names_each_gateway_mechanism(accountant, scope, rng):
    """A release is booked under the mechanism that made it, so the ledger
    tells an integer-noise release from a float-noise one."""
    for mechanism in MECHANISMS:
        release(_vec([3.0]), mechanism, 1.0, scope, rng)
    assert [c.mechanism for c in accountant.ledger] == list(MECHANISMS)


def test_laplace_rejects_nonpositive_eps(scope):
    with pytest.raises(ParameterError):
        laplace_mechanism(_vec([1.0]), 0.0, scope, zero_noise_source())


@pytest.mark.parametrize("discretize", [False, True])
def test_nan_eps_is_refused_before_any_charge(tmp_path, discretize):
    """NaN passes every `<` test: booked, it would make `spent` NaN and
    every later `spent + x > budget` false, voiding the scope's budget."""
    acct = Accountant(ledger_path=str(tmp_path / "l.txt"))
    acct.create_scope("s", PURE_EPS, 1.0)
    nan = float("nan")
    with pytest.raises(ParameterError):
        laplace_mechanism(_vec([1.0]), nan, acct.scope("s"), zero_noise_source(),
                          discretize=discretize)
    with pytest.raises(ParameterError):
        noisy_histogram(_vec([1.0]), nan, acct.scope("s"), zero_noise_source())
    assert acct.spent("s") == 0.0 and acct.ledger == ()
    with pytest.raises(BudgetExceededError):
        laplace_mechanism(_vec([1.0]), 100.0, acct.scope("s"), zero_noise_source())
    acct.close()


def test_laplace_zero_sensitivity_is_noiseless(scope):
    out = laplace_mechanism(_vec([3.0], sens=0.0), 1.0, scope,
                            ScriptedSource(uniforms=(0.123,)))
    assert out.values.tolist() == [3.0]


def test_budget_denial_leaves_no_partial_release(tmp_path):
    acct = Accountant(ledger_path=str(tmp_path / "l.txt"))
    acct.create_scope("tight", PURE_EPS, 1.0)
    scope = acct.scope("tight")
    laplace_mechanism(_vec([1.0]), 0.8, scope, zero_noise_source())
    with pytest.raises(BudgetExceededError):
        laplace_mechanism(_vec([1.0]), 0.5, scope, zero_noise_source())
    assert acct.spent("tight") == 0.8  # failed charge did not land
    acct.close()


def test_laplace_variance_matches_target(rng, scope):
    eps, sens = 0.7, 3.0
    v = _vec(np.zeros(200_000), sens=sens)
    out = laplace_mechanism(v, eps, scope, rng)
    assert float(np.var(out.values)) == pytest.approx(2 * (sens / eps) ** 2, rel=0.05)


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
def test_laplace_int_release_follows_the_exact_law(rng, scope, eps):
    """`release` through `laplace_int` at sensitivity 1 draws the discrete
    Laplace of scale 1/eps: chi-square-close to the two-sided geometric with
    alpha = exp(-eps) on -K..K plus one bin for both tails.  At eps = 0.5
    the law's variance is 7.83; a scale halved whenever eps != 1, a 2-eps
    release booked as eps, gives 1.84 there and fails by far.  A correct
    release fails each case with probability 1e-6 (the p-value threshold,
    under the chi-square approximation), so the three fail together about
    3 times in a million runs."""
    n = 20_000
    out = release(_vec(np.zeros(n)), "laplace_int", eps, scope, rng).values
    k = int(3 / eps) + 1
    support = np.arange(-k, k + 1)
    expected = two_sided_geometric_pmf(math.exp(-eps), support) * n
    observed = np.array([np.sum(out == j) for j in support])
    _, p = stats.chisquare(np.append(observed, n - observed.sum()),
                           np.append(expected, n - expected.sum()))
    assert p > 1e-6


@pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_epsilon_mechanisms_refuse_a_bad_eps_before_the_charge(tmp_path, rng, eps):
    """Only a finite eps > 0 is charged.  On an unlimited scope an infinite
    eps would be booked and then fail in the sampler, leaving `spent`
    infinite and `remaining` NaN for good."""
    acct = Accountant(ledger_path=str(tmp_path / "l.txt"))
    scope = acct.create_scope("s", PURE_EPS)
    v = _vec([1.0, 2.0])
    calls = (
        lambda: laplace_mechanism(v, eps, scope, rng),
        lambda: laplace_mechanism(v, eps, scope, rng, discretize=True),
        lambda: noisy_histogram(v, eps, scope, rng),
    )
    for call in calls:
        with pytest.raises(ParameterError):
            call()
    assert acct.spent("s") == 0.0 and acct.ledger == () and (tmp_path / "l.txt").read_text() == ""
    acct.close()


# -- exponential mechanism -------------------------------------------------------------

def test_expmech_log_probabilities_match_oracle():
    quality = np.array([0.0, 1.0, 2.0, -3.0])
    eps, dq = 1.0, 0.5
    logp = exponential_mechanism_log_probabilities(quality, dq, eps)
    b = eps * quality / (2 * dq)
    expected = b - logsumexp_mp(b.tolist())
    np.testing.assert_allclose(logp, expected, rtol=1e-12)
    assert float(np.exp(logp).sum()) == pytest.approx(1.0, rel=1e-10)


def test_expmech_no_underflow_holes_at_tiny_eps():
    """Every candidate keeps positive selection mass even at eps = 1e-6 with
    widely spread qualities; a linear-scale implementation zeroes some out."""
    quality = np.array([-1000.0, 0.0, 1000.0])
    logp = exponential_mechanism_log_probabilities(quality, 0.1, 1e-6)
    assert np.all(np.isfinite(logp))
    # Log-ratio between best and worst candidate respects the DP bound.
    assert logp.max() - logp.min() <= 1e-6 * 2000 / (2 * 0.1) + 1e-9


# -- noisy histogram -----------------------------------------------------------------

def _grouped_counts(rows):
    schema = Schema((
        ColumnMeta("k", ColumnKind.CATEGORICAL, values=("a", "b", "c")),
        ColumnMeta("v", ColumnKind.INTEGER, lower=0, upper=9),
    ))
    t = make_table(schema, rows)
    return aggregate(group_by(t, ["k"]), "count")


def test_noisy_histogram_cell_set_is_data_independent(scope, rng):
    full = noisy_histogram(_grouped_counts([("a", 1), ("b", 2)]), 1.0, scope, rng)
    empty = noisy_histogram(_grouped_counts([]), 1.0, scope, rng)
    assert full.labels == empty.labels
    assert len(empty.values) == 3  # empty cells released as pure noise


def test_noisy_histogram_noise_scale(rng, scope):
    counts = _grouped_counts([("a", 1)] * 5)  # sensitivity 2 (grouping)
    draws = np.array([noisy_histogram(counts, 2.0, scope, rng).values
                      for _ in range(30_000)])
    assert float(np.var(draws[:, 0])) == pytest.approx(2 * (2.0 / 2.0) ** 2, rel=0.07)
