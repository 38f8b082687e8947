"""Traced run: spans around calls into each dpcore module.

Spans are recorded from the benchmark's own code, around calls into
dpcore's public functions and through objects injected where dpcore's
public constructors accept them (QueryService's registry, accountant,
clock and rng; a RandomSource subclass; MechanismUnderTest(run_many=...)).
Nothing in src/ is edited.  Spans stay in memory and are written out when
the run ends.

Import this module only with src/ on sys.path.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np

from dpcore.accounting import Accountant, PURE_EPS
from dpcore.audit import (BUILTIN_TARGETS, MechanismUnderTest, anderson_darling,
                          default_neighbor_suite, dp_hypothesis_test, event_search,
                          laplace_cdf)
from dpcore.cli import CliState
from dpcore.mechanisms import laplace_mechanism, noisy_histogram
from dpcore.randomness import RandomSource, sample_laplace
from dpcore.registry import DatasetRegistry
from dpcore.relational import ColumnKind, ColumnMeta, Schema, StatVector, load_csv, load_schema
from dpcore.service import (QueryRequest, QueryService, ServiceConfig, SystemClock,
                            build_accountant)
from dpcore.transforms import parse_plan

import gen

perf = time.perf_counter


class Tracer:
    """In-memory spans (id, name, start, end, parent, request) and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, request=None):
        return _Span(self, name, request)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "request", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, request) -> None:
        self.tracer, self.name, self.request = tracer, name, request

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        if self.request is None and self.parent is not None:
            self.request = self.parent.request
        self.sid = next(self.tracer._ids)
        stack.append(self)
        self.start = perf()
        return self

    def __exit__(self, *exc) -> None:
        end = perf()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.start, end,
                                  self.parent.sid if self.parent else None, self.request))


class TracedRegistry(DatasetRegistry):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def execute_plan(self, handle, plan, rng=None, clock=None, xi=None):
        with self.tracer.span("registry.execute_plan"):
            return super().execute_plan(handle, plan, rng=rng, clock=clock, xi=xi)


class TracedAccountant(Accountant):
    def __init__(self, tracer: Tracer, ledger_path=None) -> None:
        super().__init__(ledger_path=ledger_path)
        self.tracer = tracer

    def charge(self, scope_id, amount, mechanism):
        with self.tracer.span("accounting.charge"):
            return super().charge(scope_id, amount, mechanism)


class TracedClock:
    """SystemClock with the time spent pacing rows and padding recorded."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._inner = SystemClock()

    def now(self) -> float:
        return self._inner.now()

    def advance(self, dt: float) -> None:
        t0 = perf()
        self._inner.advance(dt)
        self.tracer.add("registry.pacing_s", perf() - t0)
        self.tracer.add("registry.paced_rows", 1)

    def sleep_until(self, t: float) -> None:
        with self.tracer.span("service.pad_wait"):
            self._inner.sleep_until(t)


class TracedRandomSource(RandomSource):
    """RandomSource counting the keystream bytes it hands out."""

    def bytes(self, n: int) -> bytes:
        self.keystream_bytes = getattr(self, "keystream_bytes", 0) + n
        return super().bytes(n)


# -- the in-process service (analyst_serve's traced run, a probe elsewhere) --

class InProcessService:
    """QueryService built from injected traced parts, one session per client."""

    def __init__(self, tracer: Tracer, csv_path: str, schema_path: str, work: str) -> None:
        self.tracer = tracer
        self.ledger = os.path.join(work, "inproc_ledger.txt")
        config = ServiceConfig(
            budgets=[{"id": "main", "kind": PURE_EPS, "budget": gen.BUDGET}],
            xi=gen.XI, overhead=gen.OVERHEAD, startup_fraction=gen.STARTUP_FRACTION,
            ledger_path=self.ledger)
        self.accountant = TracedAccountant(tracer, self.ledger)
        self.accountant.create_scope("main", PURE_EPS, gen.BUDGET, sharing="per-group:main")
        self.service = QueryService(TracedRegistry(tracer), self.accountant, config,
                                    clock=TracedClock(tracer),
                                    rng=TracedRandomSource.from_os_entropy())
        with tracer.span("relational.ingest"):
            self.handle = self.service.ingest(csv_path, schema_path)
        self.sessions = []
        for _ in range(2):
            with tracer.span("service.open_session"):
                self.sessions.append(self.service.open_session(self.handle, "main"))
        self._rid = itertools.count(1)

    def client(self, i: int):
        session = self.sessions[i]

        def send(plan: dict) -> dict:
            with self.tracer.span("service.run_query", request=next(self._rid)):
                resp = self.service.run_query(
                    session, QueryRequest(plan["text"], plan["mechanism"], plan["eps"]))
            return json.loads(resp.to_bytes())

        return send

    def budget(self) -> dict:
        st = self.service.budget_status(self.sessions[0])
        return {"spent": st.spent, "remaining": st.remaining}

    def close(self) -> None:
        self.accountant.close()


def service_metrics(tracer: Tracer, n_queries: int, misses: int) -> dict:
    """Per-layer figures of the registry, gateway and service layers."""
    spans = {s[0]: s for s in tracer.spans}
    release = []
    for s in tracer.spans:
        if s[1] == "service.pad_wait" and s[4] in spans:
            release.append(s[2] - spans[s[4]][2])  # run_query start -> padding
    c = tracer.counters
    return {
        "registry.pacing_ms_per_query": 1e3 * c.get("registry.pacing_s", 0.0) / n_queries,
        "registry.paced_rows_per_query": c.get("registry.paced_rows", 0.0) / n_queries,
        "gateway.release_ms": 1e3 * statistics.fmean(release),
        "service.pad_wait_ms": 1e3 * statistics.fmean(tracer.durations("service.pad_wait")),
        # per round of the eight-plan mix on one connection
        "service.deadline_misses": 8.0 * misses / n_queries,
        "service.open_session_ms": 1e3 * statistics.median(
            tracer.durations("service.open_session")),
    }


# -- probes: direct, timed calls into one module each ----------------------

def _timed(tracer: Tracer, name: str, fn, reps: int = 3) -> float:
    """Median duration of `reps` spans, each one call of fn."""
    for _ in range(reps):
        with tracer.span(name):
            fn()
    return statistics.median(tracer.durations(name)[-reps:])


def probe_randomness(tracer: Tracer) -> dict:
    rng = TracedRandomSource.from_os_entropy()
    mb = 1 << 20
    ks = _timed(tracer, "randomness.keystream_16mb", lambda: [rng.bytes(mb) for _ in range(16)])
    n = 1 << 20
    uf = _timed(tracer, "randomness.uniform_full_1m", lambda: rng.uniform_full(n))
    rng.keystream_bytes = 0
    lap = _timed(tracer, "randomness.sample_laplace_1m", lambda: sample_laplace(rng, 1.0, size=n))
    return {
        "randomness.keystream_mb_per_s": 16 * mb / 1e6 / ks,
        "randomness.uniform_full_ns_per_draw": 1e9 * uf / n,
        "randomness.laplace_ns_per_draw": 1e9 * lap / n,
        "randomness.keystream_bytes_per_laplace_draw": rng.keystream_bytes / (3 * n),
    }


def probe_relational(tracer: Tracer, csv_path: str, schema_path: str) -> dict:
    schema = load_schema(schema_path)
    rows = len(load_csv(csv_path, schema))
    t = _timed(tracer, "relational.load_csv", lambda: load_csv(csv_path, schema))
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    table = load_csv(csv_path, schema)
    after = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del table
    return {"relational.load_csv_rows_per_s": rows / t,
            "relational.table_bytes_per_row": (after - before) / rows}


TRANSFORM_SHAPES = ("where_count", "where_groupby_count", "clamp_sum",
                    "distinct_count", "groupby2_count", "where_sum")


def probe_transforms(tracer: Tracer, plans, csv_path: str, schema_path: str) -> dict:
    """Unpaced TransformPlan.execute of each plan shape of the mix."""
    table = load_csv(csv_path, load_schema(schema_path))
    rng = RandomSource.from_os_entropy()
    texts = [p["text"] for p in plans]
    reps = 100
    t = _timed(tracer, "transforms.parse_plan_x800",
               lambda: [parse_plan(x) for _ in range(reps) for x in texts])
    out = {"transforms.parse_plan_us": 1e6 * t / (reps * len(texts))}
    for p in plans:
        if p["name"] in TRANSFORM_SHAPES:
            plan = parse_plan(p["text"])
            out[f"transforms.{p['name']}_rows_per_s"] = len(table) / _timed(
                tracer, f"transforms.execute.{p['name']}", lambda: plan.execute(table, rng))
    return out


def probe_mechanisms(tracer: Tracer) -> dict:
    """Each mechanism on a fixed StatVector, including its in-memory charge."""
    scope = Accountant().create_scope("probe", budget=math.inf)
    rng = RandomSource.from_os_entropy()
    v1 = StatVector(np.array([1234.0]), 1.0, ("count",))
    v16 = StatVector(np.arange(16.0), 2.0, tuple(f"k{i}" for i in range(16)))
    n = 2000
    calls = {
        "mechanisms.laplace_us": lambda: laplace_mechanism(v1, 1.0, scope, rng),
        "mechanisms.laplace_int_us": lambda: laplace_mechanism(v1, 1.0, scope, rng,
                                                               discretize=True),
        "mechanisms.noisy_histogram_us": lambda: noisy_histogram(v16, 1.0, scope, rng),
    }
    return {k: 1e6 * _timed(tracer, k, lambda: [f() for _ in range(n)]) / n
            for k, f in calls.items()}


def probe_accounting(tracer: Tracer, work: str) -> dict:
    """Charges appended to a ledger on disk, then a replay of that ledger."""
    ledger = os.path.join(work, "probe_ledger.txt")
    acct = Accountant(ledger_path=ledger)
    acct.create_scope("main", PURE_EPS, math.inf)
    n = gen.LEDGER_PREFILL
    charge = _timed(tracer, "accounting.charge_batch",
                    lambda: [acct.charge("main", 1e-3 + 1e-7 * i, "laplace") for i in range(n)],
                    reps=1)
    acct.close()
    cfg = ServiceConfig(budgets=[{"id": "main", "kind": PURE_EPS, "budget": math.inf}],
                        ledger_path=ledger)

    def replay():
        build_accountant(cfg).close()

    return {"accounting.charge_us": 1e6 * charge / n,
            "accounting.replay_us_per_record": 1e6 * _timed(
                tracer, "accounting.build_accountant", replay) / n,
            "accounting.ledger_bytes_per_charge": os.path.getsize(ledger) / n}


_COLD = ("import sys, time, json\n"
         "t0 = time.perf_counter()\n"
         "import dpcore.cli\n"
         "t1 = time.perf_counter()\n"
         "dpcore.cli.CliState(sys.argv[1])\n"
         "print(json.dumps([t1 - t0, time.perf_counter() - t1]))\n")


def probe_cli(config_path: str, env: dict) -> dict:
    """Cold `import dpcore.cli` and CliState construction, each in a fresh
    interpreter, three times."""
    runs = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", _COLD, config_path], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {"cli.import_s": statistics.median(r[0] for r in runs),
            "cli.state_load_s": statistics.median(r[1] for r in runs)}


def cli_state_for(work: str, csv_path: str, schema_path: str) -> str:
    """A CLI state directory holding one registered dataset; its config path."""
    d = os.path.join(work, "probe_state")
    cfg = os.path.join(work, "probe_cfg.json")
    gen.write_config(cfg, d, os.path.join(work, "probe_state_ledger.txt"), gen.BUDGET)
    state = CliState(cfg)
    handle = state.registry.ingest_files(csv_path, schema_path)
    state.persist_dataset(handle, csv_path, schema_path)
    state.accountant.close()
    return cfg


def probe_audit(tracer: Tracer, gof_scale: float) -> dict:
    """The search-plus-test repetition of `dpcore audit`, unrolled, and the
    goodness-of-fit battery."""
    import worker

    target = BUILTIN_TARGETS["laplace_count"]()
    sampled = [0.0]

    def run_many(table, eps, rng, n):
        t0 = perf()
        out = target.run_many(table, eps, rng, n)
        sampled[0] += perf() - t0
        return out

    m = MechanismUnderTest(target.name, target.run, run_many=run_many)
    schema = Schema((ColumnMeta("c0", ColumnKind.INTEGER, lower=0, upper=100),
                     ColumnMeta("c1", ColumnKind.INTEGER, lower=0, upper=1)))
    rng = RandomSource.from_os_entropy()
    reps = 0
    for _ in range(4):
        for pair in default_neighbor_suite(schema):
            with tracer.span("audit.event_search"):
                event = event_search(m, pair, gen.AUDIT_EPS, gen.AUDIT_N_SEARCH, rng)
            with tracer.span("audit.hypothesis_test"):
                dp_hypothesis_test(m, pair, event, gen.AUDIT_EPS, 0.0, gen.AUDIT_N_TEST, rng)
            reps += 1
    x = sample_laplace(rng, gof_scale, size=1 << 20)
    ad = _timed(tracer, "audit.anderson_darling_1m",
                lambda: anderson_darling(x, laplace_cdf(gof_scale)))
    batches = [worker.gof_batch(rng, gen.GOF_DRAWS, gof_scale, gen.GOF_WRONG_FACTOR)
               for _ in range(gen.GOF_BATCHES)]
    return {
        "audit.event_search_ms": 1e3 * statistics.median(tracer.durations("audit.event_search")),
        "audit.hypothesis_test_ms": 1e3 * statistics.median(
            tracer.durations("audit.hypothesis_test")),
        "audit.sample_ms_per_rep": 1e3 * sampled[0] / reps,
        "audit.anderson_darling_ms_per_mdraw": 1e3 * ad * 1e6 / x.shape[0],
        "audit.gof_draws_per_s": gen.GOF_DRAWS * len(batches) / sum(
            b["draw_s"] + b["test_s"] for b in batches),
    }
