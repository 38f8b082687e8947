"""Child process that drives dpcore through its Python API.

    python perfbench/worker.py setup_cli <spec.json>
        Register the cli_oneshot datasets, open the session and pre-fill the
        ledger through CliState and Accountant.charge; print one JSON line.
    python perfbench/worker.py gof
        Import dpcore, print "ready", then answer one JSON request per
        stdin line with a sampler goodness-of-fit battery.

Run with src/ on PYTHONPATH.  Keeping dpcore's work in children keeps the
benchmark's own process out of the peak-RSS figure.
"""

from __future__ import annotations

import json
import sys
import time


def setup_cli(spec_path: str) -> None:
    from dpcore.cli import CliState

    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    state = CliState(spec["config"])
    handles = []
    for csv_path, schema_path in spec["datasets"]:
        handle = state.registry.ingest_files(csv_path, schema_path)
        state.persist_dataset(handle, csv_path, schema_path)
        handles.append(handle)
    session = state.service.open_session(handles[0], "main")
    state.save_sessions()
    for amount in spec["prefill"]:
        state.accountant.charge("main", amount, "laplace")
    state.accountant.close()
    print(json.dumps({"handles": handles, "session": session.session_id}), flush=True)


def gof_batch(rng, n: int, scale: float, wrong_factor: float) -> dict:
    """Draw n Laplace(scale) values and test them at the right scale and at
    a wrong one, with dpcore's test; the independent statistics are
    computed outside the timed region."""
    from dpcore.audit import anderson_darling, laplace_cdf
    from dpcore.randomness import sample_laplace
    import oracle

    t0 = time.perf_counter()
    x = sample_laplace(rng, scale, size=n)
    t1 = time.perf_counter()
    ad_ok, _ = anderson_darling(x, laplace_cdf(scale))
    ad_bad, pass_bad = anderson_darling(x, laplace_cdf(scale * wrong_factor))
    t2 = time.perf_counter()
    return {
        "draw_s": t1 - t0, "test_s": t2 - t1,
        "ad_ok": ad_ok, "ad_bad": ad_bad, "pass_bad": pass_bad,
        "mine_ok": oracle.anderson_darling(x, scale),
        "mine_bad": oracle.anderson_darling(x, scale * wrong_factor),
    }


def gof_server() -> None:
    import dpcore.audit  # noqa: F401  (import cost belongs to set-up)
    from dpcore.randomness import RandomSource

    print("ready", flush=True)
    rng = RandomSource.from_os_entropy()
    for line in sys.stdin:
        req = json.loads(line)
        out = [gof_batch(rng, req["n"], req["scale"], req["wrong_factor"])
               for _ in range(req["batches"])]
        print(json.dumps(out), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "setup_cli":
        setup_cli(sys.argv[2])
    elif sys.argv[1] == "gof":
        gof_server()
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
