"""Postprocessing layer and user-facing plumbing.

Nothing in this module touches raw data: functions here accept dataset
handles and plan text only (the test suite asserts that no public function
in this module takes or returns a Table).  Budget reporting is pure
postprocessing and costs no budget.  Importing this module loads no numpy:
a release imports the data path before its padded window opens.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .accounting import (Accountant, DEFAULT_ALPHA, PURE_EPS, ScopeHandle, check_scope_id,
                         power_bound)
from .errors import ContractViolation

if TYPE_CHECKING:
    from .randomness import RandomSource
    from .registry import DatasetRegistry


class SystemClock:
    """Monotonic wall-time clock used in production."""

    def now(self) -> float:
        return time.monotonic()

    def advance(self, dt: float) -> None:
        """Does not sleep.  Paced scans call this once per scan, and every
        `time.sleep` overshoots by tens of microseconds, so sleeping here
        would make the release time track the scans a plan makes.  The
        response schedule's single `sleep_until` pays for the work instead."""

    def sleep_until(self, t: float) -> None:
        time.sleep(max(t - time.monotonic(), 0.0))


@dataclass
class ServiceConfig:
    """Runtime policy knobs; budgets and paths live in a JSON config file."""

    budgets: list = field(default_factory=list)  # [{"id", "kind", "budget"}]
    xi: float = 1.0  # per-record predicate time budget
    overhead: float = 5.0  # fixed response-schedule overhead
    startup_fraction: float = 0.01  # share of scope budget spent on n-hat
    ledger_path: str | None = None
    state_dir: str | None = None

    def __post_init__(self) -> None:
        # A negative or NaN term would move the response deadline before the
        # work ends, or make the padding sleep fail after the charge: either
        # way the response goes out unpadded.
        for name in ("xi", "overhead"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ContractViolation(f"{name} must be finite and nonnegative")
        # Outside [0, 1] (NaN too) the startup charge is not finite, exceeds
        # the scope or is negative, so no session could open.
        if not 0 <= self.startup_fraction <= 1:
            raise ContractViolation("startup_fraction must be in [0, 1]")

    @classmethod
    def from_file(cls, path: str) -> "ServiceConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
                budgets = [{"id": str(spec["id"]), "kind": spec.get("kind", PURE_EPS),
                            "budget": float(spec["budget"])} for spec in raw.get("budgets", [])]
                numbers = {key: float(raw.get(key, default)) for key, default in
                           (("xi", 1.0), ("overhead", 5.0), ("startup_fraction", 0.01))}
            except (AttributeError, KeyError, TypeError, ValueError):
                raise ContractViolation("config holds an unreadable number or budget") from None
        if any("seed" in key.lower() for key in raw):
            raise ContractViolation("config files must not carry randomness seeds")
        for spec in budgets:
            check_scope_id(spec["id"])
        return cls(budgets=budgets, **numbers, ledger_path=raw.get("ledger"),
                   state_dir=raw.get("state_dir"))


@dataclass(frozen=True)
class QuerySession:
    session_id: str  # "s<seq>" of the start-up charge
    dataset: str  # opaque handle
    scope: ScopeHandle
    n_hat: float  # noisy size estimate, fixed at session start


@dataclass(frozen=True)
class QueryRequest:
    plan_text: str
    mechanism: str
    eps: float


_ERROR_CODE = "request rejected"  # one code for every rejected request


@dataclass(frozen=True)
class QueryResponse:
    status: str  # "ok" or "error"
    code: str
    values: tuple
    labels: tuple
    remaining_budget: float

    def to_bytes(self) -> bytes:
        return json.dumps(vars(self), sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class BudgetStatus:
    spent: float
    remaining: float
    alpha: float
    power_bound: float


class QueryService:
    """Session management, padded query execution and budget reporting.

    Thread-safe: one lock guards the session table and each derivation from
    the root source, but not the query itself.  The root source is drawn
    from OS entropy on the first release unless one is given.
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        accountant: Accountant,
        config: ServiceConfig,
        clock=None,
        rng: RandomSource | None = None,
    ) -> None:
        self._registry = registry
        self._accountant = accountant
        self._config = config
        self._clock = clock if clock is not None else SystemClock()
        self._rng = rng
        self._sessions: dict[str, QuerySession] = {}
        self._lock = threading.Lock()

    def _release_path(self):
        """`private_release` and `parse_plan`, with the data path imported and
        the root source drawn.  Called before a padded window opens: work
        done inside one would be released at its end, or past its deadline."""
        from .gateway import private_release
        from .randomness import RandomSource
        from .transforms import parse_plan

        with self._lock:
            if self._rng is None:
                self._rng = RandomSource.from_os_entropy()
        return private_release, parse_plan

    def _derive(self) -> RandomSource:
        from .randomness import derive_source

        with self._lock:
            return derive_source(self._rng)

    # -- ingestion ---------------------------------------------------------

    def ingest(self, csv_path: str, sidecar_path: str) -> str:
        """Register a dataset.  Prints/returns nothing data-derived: no row
        count, no value ranges; parse failures name file structure only."""
        return self._registry.ingest_files(csv_path, sidecar_path)

    # -- sessions ----------------------------------------------------------

    def open_session(self, dataset: str, scope_id: str) -> QuerySession:
        """Create a session; spends a small startup charge on a noisy size
        estimate that is cached for the life of the session.  The session is
        named after that charge's ledger sequence number, which the ledger's
        lock makes unique across processes.  The first use of a dataset may
        load it, so the session (or the error) is released at start +
        overhead, with one doubling step on overrun."""
        private_release, parse_plan = self._release_path()
        start = self._clock.now()
        try:
            scope = self._accountant.scope(scope_id)
            eps = max(self._config.startup_fraction * scope.remaining(), 1e-3)
            result = private_release(self._registry, dataset, parse_plan("count"),
                                     "laplace", eps, scope, self._derive())
            session = QuerySession(f"s{result.charge.seq}", dataset, scope,
                                   float(result.values[0]))
            with self._lock:
                self._sessions[session.session_id] = session
            return session
        finally:
            self._pad(start, self._config.overhead, 0.0)

    def dump_sessions(self) -> dict:
        """Persistable session state.  Randomness is never part of it: each
        query derives its source from the service's own, and n-hat is kept
        (it is never recomputed within a session's lifetime).  xi is not
        kept: every session paces with the config's."""
        with self._lock:
            return {
                "sessions": {
                    sid: {
                        "dataset": s.dataset,
                        "scope": s.scope.scope_id,
                        "n_hat": s.n_hat,
                    }
                    for sid, s in self._sessions.items()
                },
            }

    def restore_sessions(self, raw: dict) -> None:
        """Add the sessions of a `dump_sessions` file that this service does
        not hold; refuse a file `dump_sessions` cannot have written.  A
        non-finite n-hat would let `run_query` charge, then fail to compute
        its padding; a negative one is a noisy count of a small dataset,
        padded as zero.  A `counter` left by an older version is ignored."""
        try:
            stored = {sid: (s["dataset"], s["scope"], float(s["n_hat"]))
                      for sid, s in raw.get("sessions", {}).items()}
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError):
            raise ContractViolation("sessions.json is unreadable") from None
        if not all(math.isfinite(n_hat) for _, _, n_hat in stored.values()):
            raise ContractViolation("sessions.json holds an n_hat that is not finite")
        with self._lock:
            for sid, (dataset, scope_id, n_hat) in stored.items():
                scope = self._accountant.scope(scope_id)
                self._sessions.setdefault(sid, QuerySession(sid, dataset, scope, n_hat))

    def session(self, session_id: str) -> QuerySession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ContractViolation(f"unknown session: {session_id}")
        return session

    # -- queries -----------------------------------------------------------

    def run_query(self, session: QuerySession, request: QueryRequest) -> QueryResponse:
        """Execute a request under the fixed response-time schedule.

        Every outcome, success or failure, is released at the same
        schedule: start + n_hat * xi + overhead (with one doubling step if
        the actual scan overran the prediction), so response timing carries
        no information about the data.  Budget-denied and malformed requests
        share one error shape.
        """
        private_release, parse_plan = self._release_path()
        start = self._clock.now()
        status, code, values, labels = "error", _ERROR_CODE, (), ()
        try:
            plan = parse_plan(request.plan_text)
            result = private_release(
                self._registry, session.dataset, plan, request.mechanism,
                request.eps, session.scope, self._derive(),
                clock=self._clock, xi=self._config.xi,
            )
            status, code = "ok", ""
            values = tuple(float(x) for x in result.values)
            labels = tuple(result.labels)
        except Exception:
            # Every failure, anticipated or not, takes the one error shape and
            # the padding below; an escaping exception would skip both.
            pass
        self._pad(start, self._n_hat_for_padding(session) * self._config.xi,
                  self._config.overhead)
        return QueryResponse(status, code, values, labels,
                             remaining_budget=session.scope.remaining())

    def _pad(self, start: float, predicted: float, fixed: float) -> None:
        """Sleep until start + predicted + fixed, or, if the work overran that,
        take one doubling step: until start + 2 * predicted + fixed."""
        target = start + predicted + fixed
        if self._clock.now() > target:
            target = start + 2.0 * predicted + fixed
        self._clock.sleep_until(target)

    def _n_hat_for_padding(self, session: QuerySession) -> float:
        # Fixed-prediction schedule: round the (inflated) noisy size up to a
        # power of two, so neighboring datasets almost always land in the
        # same padding bucket and unit-level noise in n-hat never shows up
        # in the response schedule.
        inflated = max(session.n_hat, 0.0) + 16.0
        return math.ldexp(1.0, math.ceil(math.log2(inflated)))

    # -- reporting ---------------------------------------------------------

    def budget_status(self, session: QuerySession) -> BudgetStatus:
        self._accountant.replay_ledger()  # charges other processes appended
        spent = self._accountant.spent(session.scope.scope_id)
        return BudgetStatus(
            spent=spent,
            remaining=session.scope.remaining(),
            alpha=DEFAULT_ALPHA,
            power_bound=power_bound(spent),
        )


def build_accountant(config: ServiceConfig) -> Accountant:
    """Accountant with the configured scopes and every charge already in
    its ledger file applied."""
    acct = Accountant(ledger_path=config.ledger_path)
    try:
        for spec in config.budgets:
            acct.create_scope(spec["id"], spec.get("kind", PURE_EPS), float(spec["budget"]))
        acct.replay_ledger()
    except BaseException:  # a refused config leaves no ledger file open
        acct.close()
        raise
    return acct
