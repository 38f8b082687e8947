"""Mutation rows over the plan steps' metadata rules and row kernels, and
over the audit's hypothesis test.

Each row changes one line of a shipped function, recompiled from its source
and patched in with `monkeypatch` wherever a `dpcore` module holds it, and
names the semantic tests that must then fail: the one-row-neighbour fuzzer,
the exhaustive stability and sensitivity checks of `propcheck`, the
differential test of `check` and the row pass against the row-by-row
reference, or the audit battery on a correct mechanism.  Each named test is
called on its own, with Hypothesis's example database off, so a failure
saved by an earlier run cannot stand in for a catch, and no other test's
failure counts.  Any exception is a catch: a mutant may trip an invariant,
such as a cell outside the claimed labels, before it reaches an assertion.
"""

import __future__
import inspect
import sys
import textwrap

import pytest
from hypothesis import Phase, settings

from dpcore import transforms
from dpcore.audit import blackbox
from dpcore.randomness import RandomSource
from dpcore.relational import ColumnKind, ColumnMeta, Schema
import test_audit
import test_transforms


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


def _claims(text):
    return lambda: test_audit.test_plan_claim_bounds_every_small_neighbour_pair(text)


def _stability(kind, *args):
    return lambda: test_audit.test_step_stability_bounds_every_small_neighbour_pair(kind, args)


def _correct_battery():
    schema = Schema((ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=100),
                     ColumnMeta("c1", ColumnKind.INTEGER, lower=0, upper=1)))
    return lambda: test_audit.test_battery_passes_correct_mechanism(
        schema, RandomSource.from_os_entropy())


_FUZZ = test_transforms.test_claims_bound_one_row_neighbours
_DIFFERENTIAL = test_transforms.test_columnar_executor_matches_the_row_reference

#: (name, module, function, fragment, replacement, the tests that must fail).
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
    # A test that thins by e^-eps/2 books a correct mechanism's e^eps ratio as
    # a violation: under it, 200 of 200 runs of the battery failed, the largest
    # smallest-entry mean p-value 0.006 against the threshold 0.3.
    ("the thinning keeps e^-eps/2", blackbox, "event_pvalues",
     "-eps, RESAMPLES", "-eps / 2, RESAMPLES",
     [_correct_battery()]),
]


@pytest.mark.parametrize("module, func, old, new, catchers",
                         [pytest.param(*row[1:], id=row[0]) for row in _ROWS])
def test_every_mutation_is_caught(monkeypatch, module, func, old, new, catchers):
    original = getattr(module, func)
    mutant = _mutant(original, old, new)
    for name, loaded in list(sys.modules.items()):
        if name.split(".")[0] == "dpcore" and getattr(loaded, func, None) is original:
            monkeypatch.setattr(loaded, func, mutant)
    for kind, (parse, rule) in list(transforms._STEPS.items()):
        if rule is original:
            monkeypatch.setitem(transforms._STEPS, kind, (parse, mutant))
    for catch in catchers:
        if hasattr(catch, "hypothesis"):
            catch = _no_database(monkeypatch, catch)
        with pytest.raises(Exception):
            catch()
