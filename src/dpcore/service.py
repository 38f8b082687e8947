"""Postprocessing layer and user-facing plumbing.

Nothing in this module touches raw data: functions here accept dataset
handles and plan text only (the test suite asserts that no public function
in this module takes or returns a Table).  Budget reporting is pure
postprocessing and costs no budget.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field

from .accounting import (Accountant, DEFAULT_ALPHA, PURE_EPS, ScopeHandle, check_scope_id,
                         power_bound)
from .errors import ContractViolation
from .gateway import private_release
from .randomness import RandomSource, derive_source
from .registry import DatasetRegistry
from .transforms import parse_plan


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


@dataclass
class QuerySession:
    session_id: str
    dataset: str  # opaque handle
    scope: ScopeHandle
    n_hat: float  # noisy size estimate, fixed at session start
    xi: float
    rng: RandomSource


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
        payload = {
            "status": self.status,
            "code": self.code,
            "values": list(self.values),
            "labels": list(self.labels),
            "remaining_budget": self.remaining_budget,
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class BudgetStatus:
    spent: float
    remaining: float
    alpha: float
    power_bound: float


class QueryService:
    """Session management, padded query execution and budget reporting.

    Thread-safe: one lock guards the session table, the counter and each
    derivation from a shared source, but not the query itself.
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
        self._rng = rng if rng is not None else RandomSource.from_os_entropy()
        self._sessions: dict[str, QuerySession] = {}
        self._session_counter = 0
        self._lock = threading.Lock()

    def _derive(self, parent: RandomSource) -> RandomSource:
        with self._lock:
            return derive_source(parent)

    # -- ingestion ---------------------------------------------------------

    def ingest(self, csv_path: str, sidecar_path: str) -> str:
        """Register a dataset.  Prints/returns nothing data-derived: no row
        count, no value ranges; parse failures name file structure only."""
        return self._registry.ingest_files(csv_path, sidecar_path)

    # -- sessions ----------------------------------------------------------

    def open_session(self, dataset: str, scope_id: str) -> QuerySession:
        """Create a session; spends a small startup charge on a noisy size
        estimate that is cached for the life of the session.  That first use
        may load the dataset, so the session (or the error) is released at
        start + overhead, with one doubling step on overrun."""
        start = self._clock.now()
        try:
            scope = self._accountant.scope(scope_id)
            with self._lock:
                self._session_counter += 1
                session = QuerySession(
                    session_id=f"s{self._session_counter}",
                    dataset=dataset,
                    scope=scope,
                    n_hat=0.0,
                    xi=self._config.xi,
                    rng=derive_source(self._rng),
                )
            session.n_hat = self._estimate_size(session)
            with self._lock:
                self._sessions[session.session_id] = session
            return session
        finally:
            self._pad(start, self._config.overhead, 0.0)

    def dump_sessions(self) -> dict:
        """Persistable session state.  Randomness is never part of it:
        sources are rebuilt from OS entropy on restore, and n-hat is kept
        (it is never recomputed within a session's lifetime)."""
        with self._lock:
            return {
                "counter": self._session_counter,
                "sessions": {
                    sid: {
                        "dataset": s.dataset,
                        "scope": s.scope.scope_id,
                        "n_hat": s.n_hat,
                        "xi": s.xi,
                    }
                    for sid, s in self._sessions.items()
                },
            }

    def restore_sessions(self, raw: dict) -> None:
        with self._lock:
            self._session_counter = int(raw.get("counter", 0))
            for sid, s in raw.get("sessions", {}).items():
                self._sessions[sid] = QuerySession(
                    session_id=sid,
                    dataset=s["dataset"],
                    scope=self._accountant.scope(s["scope"]),
                    n_hat=float(s["n_hat"]),
                    xi=float(s["xi"]),
                    rng=derive_source(self._rng),
                )

    def session(self, session_id: str) -> QuerySession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ContractViolation(f"unknown session: {session_id}")
        return session

    def _estimate_size(self, session: QuerySession) -> float:
        eps = max(self._config.startup_fraction * session.scope.remaining(), 1e-3)
        result = private_release(
            self._registry, session.dataset, parse_plan("count"),
            "laplace", eps, session.scope, self._derive(session.rng),
        )
        return float(result.values[0])

    # -- queries -----------------------------------------------------------

    def run_query(self, session: QuerySession, request: QueryRequest) -> QueryResponse:
        """Execute a request under the fixed response-time schedule.

        Every outcome, success or failure, is released at the same
        schedule: start + n_hat * xi + overhead (with one doubling step if
        the actual scan overran the prediction), so response timing carries
        no information about the data.  Budget-denied and malformed requests
        share one error shape.
        """
        start = self._clock.now()
        status, code, values, labels = "error", _ERROR_CODE, (), ()
        try:
            plan = parse_plan(request.plan_text)
            result = private_release(
                self._registry, session.dataset, plan, request.mechanism,
                request.eps, session.scope, self._derive(session.rng),
                clock=self._clock, xi=session.xi,
            )
            status, code = "ok", ""
            values = tuple(float(x) for x in result.values)
            labels = tuple(result.labels)
        except Exception:
            # Every failure, anticipated or not, takes the one error shape and
            # the padding below; an escaping exception would skip both.
            pass
        self._pad(start, self._n_hat_for_padding(session) * session.xi,
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
