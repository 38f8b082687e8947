#!/usr/bin/env python3
"""dpcore benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a dpcore checkout.  Workloads:

    analyst_serve  two closed-loop connections to a `dpcore serve` daemon
    cli_oneshot    cold `dpcore query` / `dpcore budget` processes
    audit_battery  `dpcore audit` on a correct and a broken mechanism, plus
                   an Anderson-Darling battery on sample_laplace draws

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run (see layers.py).
Every output is checked against computations made without dpcore
(oracle.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

import gen
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(".bench_build", "perfbench")
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Limit on any one dpcore process or request, seconds.
CMD_TIMEOUT = 120

WORKLOADS = ("analyst_serve", "cli_oneshot", "audit_battery")
E2E_UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "ops_per_s": "1/s", "rss_mb": "MB"}
LAYER_UNITS = {
    "randomness.keystream_mb_per_s": "MB/s",
    "randomness.uniform_full_ns_per_draw": "ns",
    "randomness.laplace_ns_per_draw": "ns",
    "randomness.keystream_bytes_per_laplace_draw": "count",
    "relational.load_csv_rows_per_s": "rows/s",
    "relational.table_bytes_per_row": "B",
    "transforms.parse_plan_us": "us",
    "transforms.where_count_rows_per_s": "rows/s",
    "transforms.where_groupby_count_rows_per_s": "rows/s",
    "transforms.clamp_sum_rows_per_s": "rows/s",
    "transforms.distinct_count_rows_per_s": "rows/s",
    "transforms.groupby2_count_rows_per_s": "rows/s",
    "transforms.where_sum_rows_per_s": "rows/s",
    "registry.pacing_ms_per_query": "ms",
    "registry.paced_rows_per_query": "count",
    "mechanisms.laplace_us": "us",
    "mechanisms.laplace_int_us": "us",
    "mechanisms.noisy_histogram_us": "us",
    "accounting.charge_us": "us",
    "accounting.replay_us_per_record": "us",
    "accounting.ledger_bytes_per_charge": "B",
    "gateway.release_ms": "ms",
    "service.pad_wait_ms": "ms",
    "service.deadline_misses": "count",
    "service.open_session_ms": "ms",
    "cli.import_s": "s",
    "cli.state_load_s": "s",
    "audit.event_search_ms": "ms",
    "audit.hypothesis_test_ms": "ms",
    "audit.sample_ms_per_rep": "ms",
    "audit.anderson_darling_ms_per_mdraw": "ms",
    "audit.gof_draws_per_s": "1/s",
}

perf = time.perf_counter


class Run:
    """Operations attempted and failed, and every check that did not hold."""

    def __init__(self, work: str, tracer=None) -> None:
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def run(self, cmd: list) -> tuple[int, str, float, float]:
        """Run one child to completion: (exit code, stdout, seconds, peak MB)."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = perf()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            code, rss = reap(proc, CMD_TIMEOUT)
            dt = perf() - t0
        with open(out_path, "r", encoding="utf-8") as fh:
            out = fh.read()
        if code not in (0, 1, 2):
            with open(err_path, "r", encoding="utf-8") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return code, out, dt, rss


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for `proc` (killing it after `timeout`); its exit code and peak
    RSS in MB, from the kernel's accounting of that one child."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def stop(proc: subprocess.Popen) -> float:
    """Terminate a long-lived child; its peak RSS in MB."""
    if proc.returncode is not None:
        return 0.0
    proc.terminate()
    return reap(proc, 10)[1]


def dpcore(*args) -> list:
    return [sys.executable, "-m", "dpcore.cli", *args]


def exact_answers(inputs: dict) -> dict:
    rows = oracle.correct_rows(inputs["rows"])
    return {p["name"]: oracle.exact(p, rows) for p in inputs["plans"]}


# -- analyst_serve ---------------------------------------------------------

class SocketClient:
    """One connection to `dpcore serve`, speaking line-delimited JSON."""

    def __init__(self, path: str, daemon: subprocess.Popen) -> None:
        deadline = perf() + CMD_TIMEOUT
        while True:
            if daemon.poll() is not None:
                raise RuntimeError("dpcore serve exited during start-up")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                if perf() > deadline:
                    raise
                time.sleep(0.005)
        sock.settimeout(CMD_TIMEOUT)
        self.sock = sock
        self.reader = sock.makefile("rb")

    def call(self, req: dict) -> dict:
        self.sock.sendall(json.dumps(req).encode("utf-8") + b"\n")
        return json.loads(self.reader.readline())

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def closed_loop(clients, plans, seconds: float):
    """Each client sends the plan mix, in its own rotation, one request at a
    time, and stops at the first round boundary after `seconds`.
    Returns [(client, plan, latency s, response)] and the elapsed time."""
    records: list[list] = [[] for _ in clients]
    errors: list[BaseException] = []
    start = perf()

    def drive(i: int) -> None:
        k = i * len(plans) // len(clients)
        order = plans[k:] + plans[:k]
        try:
            while True:
                for plan in order:
                    t0 = perf()
                    resp = clients[i](plan)
                    records[i].append((i, plan, perf() - t0, resp))
                if perf() - start >= seconds:
                    return
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(len(clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return [r for rs in records for r in rs], perf() - start


def check_queries(run: Run, records, exacts: dict, n_hats, ledger: str, budget: dict) -> int:
    """Check every padded response; returns how many missed the doubled
    deadline."""
    zs: dict[str, list] = {}
    misses = 0
    ok = []
    for client, plan, latency, resp in records:
        run.attempted += 1
        if resp.get("status") != "ok":
            run.failed += 1
            continue
        ok.append(resp)
        oracle.check_release(plan, exacts[plan["name"]], resp["values"], resp["labels"],
                             run.problems, zs)
        first, doubled = oracle.schedule(n_hats[client], gen.XI, gen.OVERHEAD)
        if latency < first:
            run.problems.append(f"{plan['name']}: response after {latency:.4f}s, "
                                f"before its schedule {first:.4f}s")
        misses += latency > doubled
    oracle.check_scale(zs, run.problems)
    charges, _ = oracle.parse_ledger(ledger)
    if len(charges) != len(n_hats) + len(ok):  # one per session, one per release
        run.problems.append(f"ledger has {len(charges)} lines for "
                            f"{len(n_hats) + len(ok)} charges")
    spent, remaining = 0.0, {gen.BUDGET}
    for _, amount in charges:
        spent += amount
        remaining.add(gen.BUDGET - spent)
    if any(r["remaining_budget"] not in remaining for r in ok):
        run.problems.append("a response's remaining_budget is no prefix of the ledger")
    run.attempted += 1
    lc = oracle.LedgerCheck(ledger, "main", gen.BUDGET)
    lc.advance()
    lc.check(budget["spent"], budget["remaining"], run.problems, "budget")
    return misses


def analyst_serve(run: Run, inputs: dict, seconds: float) -> tuple[dict, dict]:
    exacts = exact_answers(inputs)
    if run.tracer is not None:
        return analyst_inprocess(run, inputs, seconds, exacts)
    setups = []
    daemon, clients = None, []
    try:
        for k in range(SETUP_REPEATS):
            for c in clients:
                c.close()
            if daemon is not None:
                stop(daemon)
            d = os.path.join(run.work, f"state{k}")
            cfg, ledger = os.path.join(d, "cfg.json"), os.path.join(d, "ledger.txt")
            sock = os.path.relpath(os.path.join(d, "s.sock"), ROOT)
            os.makedirs(d)
            gen.write_config(cfg, os.path.join(d, "state"), ledger, gen.BUDGET)
            t0 = perf()
            code, out, _, _ = run.run(dpcore("ingest", "--csv", inputs["csv"],
                                             "--schema", inputs["schema"], "--config", cfg))
            if code != 0:
                raise RuntimeError("dpcore ingest failed")
            handle = out.strip()
            with open(os.path.join(d, "serve.log"), "wb") as log:
                daemon = subprocess.Popen(dpcore("serve", "--config", cfg, "--socket", sock),
                                          stdout=log, stderr=log, env=run.env, cwd=ROOT)
            clients = [SocketClient(sock, daemon) for _ in range(2)]
            sessions = [c.call({"cmd": "session", "dataset": handle, "scope": "main"})["session"]
                        for c in clients]
            setups.append(perf() - t0)
        with open(os.path.join(d, "state", "sessions.json"), "r", encoding="utf-8") as fh:
            saved = json.load(fh)["sessions"]
        n_hats = [saved[s]["n_hat"] for s in sessions]

        def sender(i):
            return lambda plan: clients[i].call({
                "cmd": "query", "session": sessions[i], "plan": plan["text"],
                "mechanism": plan["mechanism"], "eps": plan["eps"]})

        records, elapsed = closed_loop([sender(0), sender(1)], inputs["plans"], seconds)
        budget = clients[0].call({"cmd": "budget", "session": sessions[0]})
    finally:
        for c in clients:
            c.close()
        rss = stop(daemon) if daemon is not None else 0.0
    misses = check_queries(run, records, exacts, n_hats, ledger, budget)
    latencies = [r[2] for r in records]
    e2e = {"setup_s": statistics.median(setups),
           "latency_p50_ms": 1e3 * statistics.median(latencies),
           "ops_per_s": len(records) / elapsed,
           "rss_mb": rss}
    return e2e, {"queries": len(records), "deadline_misses": misses,
                 "p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
                 "config": cfg}


def analyst_inprocess(run: Run, inputs: dict, seconds: float, exacts: dict):
    """The traced analyst_serve: the same loop against an in-process
    QueryService assembled from traced parts."""
    import layers

    t0 = perf()
    svc = layers.InProcessService(run.tracer, inputs["csv"], inputs["schema"], run.work)
    setup = perf() - t0
    try:
        records, elapsed = closed_loop([svc.client(0), svc.client(1)], inputs["plans"],
                                       seconds)
        misses = check_queries(run, records, exacts, [s.n_hat for s in svc.sessions],
                               svc.ledger, svc.budget())
    finally:
        svc.close()
    latencies = [r[2] for r in records]
    e2e = {"setup_s": setup, "latency_p50_ms": 1e3 * statistics.median(latencies),
           "ops_per_s": len(records) / elapsed}
    layer = layers.service_metrics(run.tracer, len(records), misses)
    return e2e, {"queries": len(records), "deadline_misses": misses, "layer": layer}


# -- cli_oneshot -----------------------------------------------------------

def cli_oneshot(run: Run, inputs: dict, seconds: float) -> tuple[dict, dict]:
    exacts = exact_answers(inputs)
    setups = []
    for k in range(SETUP_REPEATS):
        d = os.path.join(run.work, f"state{k}")
        os.makedirs(d)
        cfg, ledger = os.path.join(d, "cfg.json"), os.path.join(d, "ledger.txt")
        gen.write_config(cfg, os.path.join(d, "state"), ledger, gen.CLI_BUDGET)
        spec = os.path.join(d, "setup.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"config": cfg, "prefill": inputs["prefill"],
                       "datasets": [[inputs["csv"], inputs["schema"]],
                                    [inputs["idle_csv"], inputs["idle_schema"]]]}, fh)
        code, out, dt, _ = run.run([sys.executable, os.path.join(HERE, "worker.py"),
                                    "setup_cli", spec])
        if code != 0:
            raise RuntimeError("cli set-up failed")
        setups.append(dt)
    session = json.loads(out.strip().splitlines()[-1])["session"]
    lc = oracle.LedgerCheck(ledger, "main", gen.CLI_BUDGET)
    lc.advance()
    if lc.records != gen.LEDGER_PREFILL + 1:
        run.problems.append(f"set-up ledger has {lc.records} lines")
    plans = inputs["plans"]
    ops = [("query", p) for p in plans[:4]] + [("budget", None)] + \
          [("query", p) for p in plans[4:]] + [("budget", None)]
    times, rss, zs = [], 0.0, {}
    by_kind: dict[str, list] = {"query": [], "budget": []}
    start = perf()
    while True:
        for kind, plan in ops:
            if kind == "query":
                cmd = dpcore("query", "--session", session, "--plan", plan["path"],
                             "--mechanism", plan["mechanism"], "--eps", str(plan["eps"]),
                             "--config", cfg)
            else:
                cmd = dpcore("budget", "--session", session, "--config", cfg)
            with run.span(f"cli.{kind}"):
                code, out, dt, peak = run.run(cmd)
            run.attempted += 1
            times.append(dt)
            by_kind[kind].append(dt)
            rss = max(rss, peak)
            added = lc.advance()
            if code != 0:
                run.failed += 1
                continue
            if kind == "query":
                resp = json.loads(out)
                oracle.check_release(plan, exacts[plan["name"]], resp["values"],
                                     resp["labels"], run.problems, zs)
                lc.check(None, resp["remaining_budget"], run.problems, plan["name"])
                want = 1
            else:
                fields = dict(part.split("=", 1) for part in out.split())
                lc.check(float(fields["spent"]), float(fields["remaining"]), run.problems,
                         "budget")
                want = 0
            if added != want:
                run.problems.append(f"{kind}: {added} ledger lines for {want} charges")
        if perf() - start >= seconds:
            break
    oracle.check_scale(zs, run.problems)
    e2e = {"setup_s": statistics.median(setups),
           "latency_p50_ms": 1e3 * statistics.median(times),
           "ops_per_s": len(times) / sum(times),
           "rss_mb": rss}
    return e2e, {"commands": len(times), "config": cfg,
                 "query_ms": [round(1e3 * t) for t in by_kind["query"]],
                 "budget_ms": [round(1e3 * t) for t in by_kind["budget"]]}


# -- audit_battery ---------------------------------------------------------

#: `dpcore audit` commands of one round and their expected exit codes.
AUDIT_ROUND = (("laplace_count", 0), ("bug:half_noise_laplace_count", 2))


def _gof_worker(run: Run) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), "gof"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=run.env,
                            cwd=ROOT, text=True)
    if proc.stdout.readline().strip() != "ready":
        stop(proc)
        raise RuntimeError("goodness-of-fit worker failed to start")
    return proc


def check_gof(run: Run, batch: dict) -> None:
    run.attempted += 1
    mine_ok, mine_bad = batch["mine_ok"], batch["mine_bad"]
    if not mine_ok <= oracle.AD_ACCEPT:
        run.problems.append(f"sample_laplace draws rejected at the right scale: A2={mine_ok}")
    for theirs, mine in ((batch["ad_ok"], mine_ok), (batch["ad_bad"], mine_bad)):
        if not abs(theirs - mine) <= 1e-6 * max(1.0, abs(mine)):
            run.problems.append(f"anderson_darling {theirs!r} != independent {mine!r}")
    if batch["pass_bad"] or not mine_bad > oracle.AD_CRITICAL_99:
        run.problems.append(f"5% wrong scale not rejected: A2={batch['ad_bad']}")


def audit_battery(run: Run, inputs: dict, seconds: float) -> tuple[dict, dict]:
    setups, worker = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if worker is not None:
                stop(worker)
            t0 = perf()
            worker = _gof_worker(run)
            setups.append(perf() - t0)
        request = json.dumps({"n": gen.GOF_DRAWS, "scale": inputs["gof_scale"],
                              "wrong_factor": gen.GOF_WRONG_FACTOR,
                              "batches": gen.GOF_BATCHES}) + "\n"
        times, reps, rss = [], 0, 0.0
        start = perf()
        while True:
            for target, want in AUDIT_ROUND:
                with run.span("audit.command"):
                    code, out, dt, peak = run.run(dpcore("audit", "--target", target,
                                                         *gen.AUDIT_ARGS))
                run.attempted += 1
                times.append(dt)
                rss = max(rss, peak)
                if code not in (0, 2):
                    run.failed += 1
                    continue
                n = sum(len(line.split("pvalues=", 1)[1].split(","))
                        for line in out.splitlines() if " pvalues=" in line)
                reps += n
                if code != want:
                    run.problems.append(f"audit {target}: exit {code}, expected {want}")
                if f"overall passed={want == 0}" not in out:
                    run.problems.append(f"audit {target}: report disagrees with exit code")
                if n != 3 * gen.AUDIT_REPS:  # three neighbour pairs, one eps
                    run.problems.append(f"audit {target}: {n} repetitions reported")
            with run.span("audit.gof"):
                worker.stdin.write(request)
                worker.stdin.flush()
                batches = json.loads(worker.stdout.readline())
            for b in batches:
                check_gof(run, b)
            if perf() - start >= seconds:
                break
    finally:
        if worker is not None:
            worker.stdin.close()
            rss_worker = stop(worker)
    e2e = {"setup_s": statistics.median(setups),
           "latency_p50_ms": 1e3 * statistics.median(times),
           "ops_per_s": reps / sum(times),
           "rss_mb": max(rss, rss_worker)}
    return e2e, {"commands": len(times), "repetitions": reps}


# -- traced run: per-layer metrics -----------------------------------------

def layer_metrics(run: Run, workload: str, inputs: dict, info: dict) -> dict:
    import layers

    if "layer" not in info:  # one round of the analyst loop, in process
        info["layer"] = analyst_inprocess(run, inputs, 0.0, exact_answers(inputs))[1]["layer"]
    out = info.pop("layer")
    big = ("idle_csv", "idle_schema") if workload == "cli_oneshot" else ("csv", "schema")
    t = run.tracer
    out.update(layers.probe_randomness(t))
    out.update(layers.probe_relational(t, inputs[big[0]], inputs[big[1]]))
    out.update(layers.probe_transforms(t, inputs["plans"], inputs["csv"], inputs["schema"]))
    out.update(layers.probe_mechanisms(t))
    out.update(layers.probe_accounting(t, run.work))
    cfg = info.get("config") or layers.cli_state_for(run.work, inputs["csv"], inputs["schema"])
    out.update(layers.probe_cli(cfg, run.env))
    out.update(layers.probe_audit(t, inputs["gof_scale"]))
    missing = set(LAYER_UNITS) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    return out


# -- entry point -----------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dpcore", "cli.py")):
        print("perfbench: run from the root of a dpcore checkout (src/dpcore missing)",
              file=sys.stderr)
        return 2
    # Byte-compile first, so no run pays for compilation inside a timing.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], check=True,
                   stdout=subprocess.DEVNULL)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tracer = None
    if args.trace:
        sys.path.insert(0, SRC)
        import layers
        tracer = layers.Tracer()
    run = Run(work, tracer)
    try:
        inputs = gen.make_inputs(args.workload, args.seed, os.path.join(work, "inputs"))
        workload = {"analyst_serve": analyst_serve, "cli_oneshot": cli_oneshot,
                    "audit_battery": audit_battery}[args.workload]
        e2e, info = workload(run, inputs, args.seconds)
        if args.trace:
            values, units = layer_metrics(run, args.workload, inputs, info), LAYER_UNITS
            tracer.write(os.path.join(WORK_ROOT, f"trace-{args.workload}-{args.seed}.jsonl"))
        else:
            values, units = e2e, E2E_UNITS
        print(json.dumps({"info": {k: v for k, v in info.items() if k != "config"},
                          "traced_e2e" if args.trace else "e2e": e2e}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in run.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
