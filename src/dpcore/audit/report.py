"""Structured audit outcomes and the full black-box battery runner."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..randomness import RandomSource, derive_source
from .blackbox import (
    MEAN_POLICY,
    MechanismUnderTest,
    NeighborPair,
    OutcomeEvent,
    aggregate_pvalues,
    dp_hypothesis_test,
    event_search,
)

#: Exit codes for the audit CLI.
EXIT_NO_VIOLATION = 0
EXIT_VIOLATION = 2

#: Desk-scale defaults (the full-scale run used 500,000 samples and 200
#: repetitions; these are sized for a workstation and are all overridable).
DEFAULT_N_SEARCH = 50_000
DEFAULT_N_TEST = 100_000
DEFAULT_REPETITIONS = 50

@dataclass(frozen=True)
class Counterexample:
    pair_name: str
    event: OutcomeEvent
    estimated_ratio: float
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
                f"event={ce.event.describe()} ratio={ce.estimated_ratio!r} "
                f"p={ce.p_value!r}"
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
    delta: float = 0.0,
    tested_eps: float | None = None,
    policy: str = MEAN_POLICY,
) -> AuditEntry:
    """Repeated two-phase test of one mechanism on one neighbor pair.

    Each repetition selects its own event on search samples and computes one
    p-value on disjoint fresh samples; the repetitions are aggregated under
    the selected policy.  `tested_eps` is the epsilon whose violation is
    being probed (defaults to the epsilon the mechanism is run with).
    """
    tested = tested_eps if tested_eps is not None else eps
    pvalues: list[float] = []
    worst: Counterexample | None = None
    for _ in range(repetitions):
        event = event_search(m, pair, eps, n_search, rng)
        p = dp_hypothesis_test(m, pair, event, tested, delta, n_test, rng)
        pvalues.append(p)
        est_ratio = math.exp(tested) if p >= 1.0 else math.exp(tested) / max(p, 1e-300)
        if worst is None or p < worst.p_value:
            worst = Counterexample(pair.name, event, est_ratio, p)
    verdict = aggregate_pvalues(pvalues, policy)
    return AuditEntry(
        name=f"{m.name}/{pair.name}/eps={eps}/tested={tested}",
        statistic=verdict.mean_p,
        p_values=tuple(pvalues),
        passed=verdict.passed,
        counterexample=None if verdict.passed else worst,
    )


def black_box_battery(
    m: MechanismUnderTest,
    suite: list[NeighborPair],
    eps_values,
    rng: RandomSource,
    n_search: int = DEFAULT_N_SEARCH,
    n_test: int = DEFAULT_N_TEST,
    repetitions: int = DEFAULT_REPETITIONS,
    delta: float = 0.0,
    eps_factors=(1.0,),
    policy: str = MEAN_POLICY,
) -> AuditReport:
    """Run the two-phase test over a neighbor suite and an epsilon grid.

    For each claimed epsilon, the mechanism runs at that epsilon and the
    hypothesis is probed at factor * claimed for each factor (only factors
    >= 1 can fail a correct mechanism's own claim; sub-1 factors measure
    headroom and are reported, not enforced).
    """
    report = AuditReport()
    for eps in eps_values:
        for factor in eps_factors:
            enforce = factor >= 1.0
            for pair in suite:
                entry = audit_pair(
                    m, pair, eps, derive_source(rng),
                    n_search=n_search, n_test=n_test, repetitions=repetitions,
                    delta=delta, tested_eps=eps * factor, policy=policy,
                )
                if not enforce:
                    entry = AuditEntry(
                        entry.name + "/headroom", entry.statistic,
                        entry.p_values, True, entry.counterexample,
                    )
                report.add(entry)
    return report
