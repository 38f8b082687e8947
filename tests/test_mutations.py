"""Mutation rows over the plan steps' metadata rules and row kernels, the
releases, the samplers, the accountant and the audit's hypothesis test.

Each row changes one line of a shipped function or method, recompiled from
its source and patched in with `monkeypatch` on its owner (a module or a
class) and wherever a `dpcore` or test module holds it by name, and names
the semantic tests that must then fail: the one-row-neighbour fuzzer, the
exhaustive stability and sensitivity checks of `propcheck`, the
differential test of `check` and the row pass against the row-by-row
reference, the laws of the samplers and releases, the release floor, the
budget check, or the audit battery on a correct mechanism.  Each named test
is called on its own, with the fixtures it names, and Hypothesis's example
database off, so a failure saved by an earlier run cannot stand in for a
catch, and no other test's failure counts.  Any exception, or a
`pytest.raises` that saw none, is a catch: a mutant may trip an invariant,
such as a cell outside the claimed labels, before it reaches an assertion.
"""

import __future__
import inspect
import os
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from dpcore import mechanisms, randomness, transforms
from dpcore.accounting import Accountant
from dpcore.audit import blackbox
import test_accounting
import test_audit
import test_mechanisms
import test_noise
import test_transforms

_TESTS = os.path.dirname(os.path.abspath(__file__))


def _mutant(func, old: str, new: str):
    """`func` recompiled from its source with the one fragment `old`
    replaced by `new`, in its own module's namespace."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{func.__name__} no longer holds {old!r}"
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, func.__globals__, namespace)
    return namespace[func.__name__]


def _no_database(monkeypatch, test):
    """`test`, a Hypothesis test, runs without its example database, and
    stops at its first failure unshrunk, while the monkeypatch lasts."""
    monkeypatch.setattr(test, "_hypothesis_internal_use_settings",
                        settings(test._hypothesis_internal_use_settings, database=None,
                                 phases=(Phase.explicit, Phase.generate),
                                 report_multiple_bugs=False))
    return test


def _catch(test, **params):
    """A catcher: `test` called with `params`, its other arguments the
    fixtures of the same names, taken from the mutation test's `request`."""
    def run(request):
        names = inspect.signature(test).parameters
        if hasattr(test, "hypothesis"):
            _no_database(request.getfixturevalue("monkeypatch"), test)
        test(**{n: params[n] if n in params else request.getfixturevalue(n) for n in names})

    return run


def _claims(text):
    return _catch(test_audit.test_plan_claim_bounds_every_small_neighbour_pair, text=text)


def _stability(kind, *args):
    return _catch(test_audit.test_step_stability_bounds_every_small_neighbour_pair,
                  kind=kind, args=args)


def _laplace_int_law(eps):
    return _catch(test_mechanisms.test_laplace_int_release_follows_the_exact_law, eps=eps)


_FUZZ = _catch(test_transforms.test_claims_bound_one_row_neighbours)
_DIFFERENTIAL = _catch(test_transforms.test_columnar_executor_matches_the_row_reference)

#: (name, owner, function, fragment, replacement, the tests that must fail).
_ROWS = [
    ("self_union keeps its stability", transforms, "self_union",
     "stability=2 * m.stability", "stability=m.stability",
     [_FUZZ, _claims("self_union\ncount"), _stability("self_union")]),
    ("group_by keeps its stability", transforms, "group_by",
     "stability=2 * m.stability", "stability=m.stability",
     [_FUZZ, _stability("group_by", ("n",))]),
    ("a sum's influence is |upper| only", transforms, "aggregate",
     "max(abs(col.lower), abs(col.upper))", "abs(col.upper)",
     [_FUZZ, _claims("sum k")]),
    ("an integer < bound rounds inward", transforms, "select_where",
     '"<": math.ceil(c) - 1', '"<": math.floor(c) - 1',
     [_FUZZ, _claims("select_where n < 2.5\nsum n")]),
    ("map_column clamp does not clip", transforms, "map_column",
     "np.clip(x, lo, hi) if isinstance(f, Clamp)", "x if isinstance(f, Clamp)",
     [_FUZZ, _claims("map_column k clamp 0 1\nsum k"), _DIFFERENTIAL]),
    ("distinct keeps duplicates", transforms, "distinct",
     "np.take(a, order[first])", "np.take(a, order)",
     [_DIFFERENTIAL]),
    ("laplace_int at half scale", mechanisms, "release",
     "Fraction(v.l1_sensitivity) / Fraction(eps)",
     "Fraction(v.l1_sensitivity) / Fraction(eps) / 2",
     [_laplace_int_law(1.0)]),
    # A 2-eps release booked as eps: at eps = 0.5 the variance is 1.84
    # against the law's 7.83.
    ("laplace_int at half scale whenever eps != 1", mechanisms, "release",
     "Fraction(v.l1_sensitivity) / Fraction(eps)",
     "Fraction(v.l1_sensitivity) / Fraction(eps) / (1 if eps == 1 else 2)",
     [_laplace_int_law(0.5), _laplace_int_law(2.0)]),
    # Rounded Laplace(b) puts 1 - e^(-1/2b) at 0, the discrete law
    # tanh(1/2b): 0.22 against 0.24 at eps = 0.5, too close for the law test's
    # 20,000 draws to tell every time, 0.39 against 0.46 at eps = 1.
    ("laplace_int draws rounded float noise", mechanisms, "release",
     "[sample_discrete_laplace(rng, scale) for _ in range(len(v))]",
     "np.round(sample_laplace(rng, float(scale), size=len(v)))",
     [_laplace_int_law(1.0), _laplace_int_law(2.0)]),
    ("the discrete Laplace keeps -0", randomness, "sample_discrete_laplace",
     "not (negative and y == 0)", "True",
     [_catch(test_noise.test_discrete_laplace_pmf, scale=Fraction(1))]),
    ("the eps/sensitivity floor is dropped", mechanisms, "release",
     "eps / v.l1_sensitivity < EPSILON_SENSITIVITY_FLOOR", "False",
     [_catch(test_mechanisms.test_epsilon_floor_rejects_absurd_noise_scales),
      _catch(test_mechanisms.test_epsilon_floor_scales_with_sensitivity)]),
    ("charge tests the amount, not the running total", Accountant, "charge",
     "if spent > scope.budget:", "if amount > scope.budget:",
     [_catch(test_accounting.test_budget_exceeded_is_atomic_and_uniform)]),
    # A test that thins by e^-eps/2 books a correct mechanism's e^eps ratio as
    # a violation: under it, 200 of 200 runs of the battery failed, the largest
    # smallest-entry mean p-value 0.0023 against the threshold 0.3.
    ("the thinning keeps e^-eps/2", blackbox, "event_pvalues",
     "light, -eps)", "light, -eps / 2)",
     [_catch(test_audit.test_battery_passes_correct_mechanism)]),
]


def _holds(name: str, module) -> bool:
    """A `dpcore` module or one of the tests' own, whose names a mutant replaces."""
    return (name.split(".")[0] == "dpcore"
            or os.path.dirname(getattr(module, "__file__", None) or "") == _TESTS)


@pytest.mark.parametrize("owner, func, old, new, catchers",
                         [pytest.param(*row[1:], id=row[0]) for row in _ROWS])
def test_every_mutation_is_caught(monkeypatch, request, owner, func, old, new, catchers):
    original = getattr(owner, func)
    mutant = _mutant(original, old, new)
    monkeypatch.setattr(owner, func, mutant)
    for name, loaded in list(sys.modules.items()):
        if _holds(name, loaded) and getattr(loaded, func, None) is original:
            monkeypatch.setattr(loaded, func, mutant)
    for kind, (parse, rule) in list(transforms._STEPS.items()):
        if rule is original:
            monkeypatch.setitem(transforms._STEPS, kind, (parse, mutant))
    for catch in catchers:
        with pytest.raises((Exception, pytest.fail.Exception)):  # a missed pytest.raises too
            catch(request)
