"""The black-box battery and its report.

`black_box_battery` runs `audit_pair` on every neighbor pair at every
claimed epsilon.  Both phases of a pair run the mechanism at that epsilon
and test pure epsilon (delta = 0).  An entry passes on the mean-p-value
threshold of `aggregate_pvalues`; a failing entry names the pair, the event
and the p-value of its worst repetition, and makes the exit code
EXIT_VIOLATION.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..randomness import RandomSource, derive_source
from ..relational import Table
from .blackbox import (
    MechanismUnderTest,
    NeighborPair,
    OutcomeEvent,
    aggregate_pvalues,
    event_pvalue,
    require_samples,
    select_event,
)

#: Exit codes for the audit CLI.
EXIT_NO_VIOLATION = 0
EXIT_VIOLATION = 2

#: Desk-scale defaults (the full-scale run used 500,000 samples and 200
#: repetitions; these are sized for a workstation and are all overridable).
DEFAULT_N_SEARCH = 50_000
DEFAULT_N_TEST = 100_000
DEFAULT_REPETITIONS = 50
#: Outcomes one sampler call draws for a group of repetitions, at most
#: (unless one repetition needs more): it bounds the memory of a group.
GROUP_OUTCOMES = 1 << 18

@dataclass(frozen=True)
class Counterexample:
    pair_name: str
    event: OutcomeEvent
    p_value: float


@dataclass(frozen=True)
class AuditEntry:
    name: str
    statistic: float
    p_values: tuple[float, ...]
    passed: bool
    counterexample: Counterexample | None = None

    def to_lines(self) -> list[str]:
        lines = [
            f"test={self.name} statistic={self.statistic!r} passed={self.passed}",
            f"test={self.name} pvalues={','.join(repr(p) for p in self.p_values)}",
        ]
        if self.counterexample is not None:
            ce = self.counterexample
            lines.append(
                f"test={self.name} counterexample pair={ce.pair_name} "
                f"event={ce.event.describe()} p={ce.p_value!r}"
            )
        return lines


@dataclass
class AuditReport:
    entries: list[AuditEntry] = field(default_factory=list)

    def add(self, entry: AuditEntry) -> None:
        self.entries.append(entry)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def exit_code(self) -> int:
        return EXIT_NO_VIOLATION if self.passed else EXIT_VIOLATION

    def to_text(self) -> str:
        lines = []
        for entry in self.entries:
            lines.extend(entry.to_lines())
        lines.append(f"overall passed={self.passed}")
        return "\n".join(lines) + "\n"


def audit_pair(
    m: MechanismUnderTest,
    pair: NeighborPair,
    eps: float,
    rng: RandomSource,
    n_search: int = DEFAULT_N_SEARCH,
    n_test: int = DEFAULT_N_TEST,
    repetitions: int = DEFAULT_REPETITIONS,
) -> AuditEntry:
    """Repeated two-phase test of one mechanism on one neighbor pair at `eps`.

    Each repetition selects its own event on search samples and computes one
    p-value, for pure epsilon (delta = 0), on disjoint fresh samples; both
    phases run the mechanism at `eps`.  The entry passes when the mean
    p-value clears its threshold (`aggregate_pvalues`), and a failing entry
    carries the repetition with the smallest p-value as its counterexample.

    The repetitions run in groups of GROUP_OUTCOMES // max(n_search, n_test)
    (at least one).  A group draws each side's search outcomes, and then its
    test outcomes, in one sampler call with its own derived source, and each
    repetition searches and tests on its own disjoint slices of them.
    """
    require_samples(n_search, "n_search")
    require_samples(n_test, "n_test")
    group = max(1, GROUP_OUTCOMES // max(n_search, n_test))
    pvalues: list[float] = []
    worst: Counterexample | None = None
    for start in range(0, repetitions, group):
        g = min(group, repetitions - start)
        search1, search2 = (np.sort(_draw(m, d, eps, rng, g, n_search), axis=1)
                            for d in (pair.d1, pair.d2))
        events = [select_event(a, b, eps) for a, b in zip(search1, search2)]
        test1, test2 = (_draw(m, d, eps, rng, g, n_test) for d in (pair.d1, pair.d2))
        np_rng = np.random.default_rng(rng.randbits(128))
        for event, out1, out2 in zip(events, test1, test2):
            p = event_pvalue(out1, out2, event, eps, 0.0, np_rng)
            pvalues.append(p)
            if worst is None or p < worst.p_value:
                worst = Counterexample(pair.name, event, p)
    verdict = aggregate_pvalues(pvalues)
    return AuditEntry(
        name=f"{m.name}/{pair.name}/eps={eps}",
        statistic=verdict.mean_p,
        p_values=tuple(pvalues),
        passed=verdict.mean_pass,
        counterexample=None if verdict.mean_pass else worst,
    )


def _draw(m: MechanismUnderTest, table: Table, eps: float, rng: RandomSource,
          g: int, n: int) -> np.ndarray:
    """g x n outcomes on `table` from one sampler call: row r is repetition r's."""
    return m.sample(table, eps, derive_source(rng), g * n).reshape(g, n)


def black_box_battery(
    m: MechanismUnderTest,
    suite: list[NeighborPair],
    eps_values,
    rng: RandomSource,
    n_search: int = DEFAULT_N_SEARCH,
    n_test: int = DEFAULT_N_TEST,
    repetitions: int = DEFAULT_REPETITIONS,
) -> AuditReport:
    """`audit_pair` on every pair of the neighbor suite at every epsilon of
    the grid, each on its own derived source: one entry per (epsilon, pair),
    epsilon-major."""
    report = AuditReport()
    for eps in eps_values:
        for pair in suite:
            report.add(audit_pair(m, pair, eps, derive_source(rng), n_search=n_search,
                                  n_test=n_test, repetitions=repetitions))
    return report
