"""Mutation rows over the plan steps' metadata rules and row kernels.

Each row changes one line of a shipped function in `dpcore.transforms`,
recompiled from its source and patched in with `monkeypatch`, and names the
semantic tests that must then fail: the one-row-neighbour fuzzer, the
exhaustive stability and sensitivity checks of `propcheck`, or the
differential test of `check` and the row pass against the row-by-row
reference.  Each named test is called on its own, with Hypothesis's example
database off, so a failure saved by an earlier run cannot stand in for a
catch, and no other test's failure counts.  Any exception is a catch: a
mutant may trip an invariant, such as a cell outside the claimed labels,
before it reaches an assertion.
"""

import __future__
import inspect
import textwrap

import pytest
from hypothesis import Phase, settings

from dpcore import transforms
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


_FUZZ = test_transforms.test_claims_bound_one_row_neighbours
_DIFFERENTIAL = test_transforms.test_columnar_executor_matches_the_row_reference

#: (name, function, fragment, replacement, the tests that must fail).
_ROWS = [
    ("self_union keeps its stability", "self_union",
     "stability=2 * m.stability", "stability=m.stability",
     [_FUZZ, _claims("self_union\ncount"), _stability("self_union")]),
    ("group_by keeps its stability", "group_by",
     "stability=2 * m.stability", "stability=m.stability",
     [_FUZZ, _stability("group_by", ("n",))]),
    ("a sum's influence is |upper| only", "aggregate",
     "max(abs(col.lower), abs(col.upper))", "abs(col.upper)",
     [_FUZZ, _claims("sum k")]),
    ("an integer < bound rounds inward", "select_where",
     '"<": math.ceil(c) - 1', '"<": math.floor(c) - 1',
     [_FUZZ, _claims("select_where n < 2.5\nsum n")]),
    ("map_column clamp does not clip", "map_column",
     "np.clip(x, lo, hi) if isinstance(f, Clamp)", "x if isinstance(f, Clamp)",
     [_FUZZ, _claims("map_column k clamp 0 1\nsum k"), _DIFFERENTIAL]),
    ("distinct keeps duplicates", "distinct",
     "np.take(a, order[first])", "np.take(a, order)",
     [_DIFFERENTIAL]),
]


@pytest.mark.parametrize("func, old, new, catchers",
                         [pytest.param(*row[1:], id=row[0]) for row in _ROWS])
def test_every_mutation_is_caught(monkeypatch, func, old, new, catchers):
    original = getattr(transforms, func)
    mutant = _mutant(original, old, new)
    monkeypatch.setattr(transforms, func, mutant)
    for kind, (parse, rule) in list(transforms._STEPS.items()):
        if rule is original:
            monkeypatch.setitem(transforms._STEPS, kind, (parse, mutant))
    for catch in catchers:
        if hasattr(catch, "hypothesis"):
            catch = _no_database(monkeypatch, catch)
        with pytest.raises(Exception):
            catch()
