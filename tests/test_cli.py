import gc
import json
import math
import os
import pathlib
import re
import shutil
import socket
import stat
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, multiple, rule

import dpcore
from dpcore.accounting import PrivacyCharge
from dpcore.cli import MAX_REQUEST_LINE, CliState, _answer, _Server, build_parser, main
from dpcore.errors import BudgetExceededError, ContractViolation
from dpcore.relational import load_csv, load_schema, parse_schema, table_from_array


@pytest.fixture
def workspace(tmp_path):
    state_dir = tmp_path / "state"
    (tmp_path / "cfg.json").write_text(json.dumps({
        "budgets": [{"id": "main", "kind": "pure-eps", "budget": 20.0}],
        "xi": 0.0, "overhead": 0.0,
        "ledger": str(tmp_path / "ledger.txt"),
        "state_dir": str(state_dir),
    }))
    (tmp_path / "d.csv").write_text("c0,c1\n10,0\n20,1\n30,0\n")
    (tmp_path / "d.schema").write_text("c0 int 0 100\nc1 int 0 1\n")
    (tmp_path / "plan.txt").write_text("count\n")
    return tmp_path


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _ingest(workspace, capsys, csv="d.csv"):
    code, out = _run(["ingest", "--csv", str(workspace / csv),
                      "--schema", str(workspace / "d.schema"),
                      "--config", str(workspace / "cfg.json")], capsys)
    assert code == 0
    return out.strip()


def test_ingest_prints_only_the_handle(workspace, capsys):
    (workspace / "e.csv").write_text("c0,c1\n40,1\n")
    assert _ingest(workspace, capsys) == "ds1"  # no row counts, no ranges
    # Each command builds its state afresh, as a new process would, and
    # must not hand out a handle already persisted.
    assert _ingest(workspace, capsys, "e.csv") == "ds2"
    # The stored table is the schema-corrected parse; no CSV copy is kept.
    schema = load_schema(str(workspace / "d.schema"))
    for handle, csv in (("ds1", "d.csv"), ("ds2", "e.csv")):
        stored = workspace / "state" / "datasets" / handle
        assert sorted(os.listdir(stored)) == ["schema.txt", "table.npy"]
        array = np.load(stored / "table.npy", allow_pickle=False)
        assert table_from_array(schema, array) == load_csv(str(workspace / csv), schema)


@pytest.mark.parametrize("line", [
    "x int 5",  # a bound missing
    "x int a b",  # unparseable bounds
    "x int 0 1 2",  # a surplus field
    "x real 0 1 junk",
    "g cat a a b",  # a repeated value: grouping needs one code per value
])
def test_malformed_sidecar_line_is_refused_by_number(workspace, capsys, line):
    text = "c0 int 0 100\n" + line + "\n"
    with pytest.raises(ContractViolation, match="schema line 2"):
        parse_schema(text)
    (workspace / "bad.schema").write_text(text)
    code = main(["ingest", "--csv", str(workspace / "d.csv"), "--schema",
                 str(workspace / "bad.schema"), "--config", str(workspace / "cfg.json")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: schema line 2")
    assert "Traceback" not in err


def test_commands_load_only_the_dataset_they_name(workspace, capsys):
    cfg = str(workspace / "cfg.json")
    handle = _ingest(workspace, capsys)
    _ingest(workspace, capsys)
    os.unlink(workspace / "state" / "datasets" / "ds2" / "table.npy")
    code, sid = _run(["session", "--dataset", handle, "--scope", "main",
                      "--config", cfg], capsys)
    assert code == 0
    code, out = _run(["query", "--session", sid.strip(), "--plan", str(workspace / "plan.txt"),
                      "--mechanism", "laplace", "--eps", "1.0", "--config", cfg], capsys)
    assert code == 0 and json.loads(out)["status"] == "ok"
    code, out = _run(["budget", "--session", sid.strip(), "--config", cfg], capsys)
    assert code == 0 and "spent=" in out
    code = main(["session", "--dataset", "ds2", "--scope", "main", "--config", cfg])
    assert code == 1
    # A handle is a name inside the state's datasets directory, never a path.
    outside = workspace / "outside"
    outside.mkdir()
    shutil.copyfile(workspace / "state" / "datasets" / handle / "table.npy",
                    outside / "table.npy")
    shutil.copyfile(workspace / "d.schema", outside / "schema.txt")
    code = main(["session", "--dataset", os.path.join("..", "..", "outside"),
                 "--scope", "main", "--config", cfg])
    assert code == 1


def test_query_reads_the_stored_table_not_the_csv(workspace, capsys, monkeypatch):
    """A cold `query` loads the binary table: no CSV is parsed inside the
    padded window."""
    cfg = str(workspace / "cfg.json")
    handle = _ingest(workspace, capsys)
    _, sid = _run(["session", "--dataset", handle, "--scope", "main", "--config", cfg], capsys)

    def no_csv(*args, **kwargs):
        raise AssertionError("a CSV was parsed")

    import csv
    import dpcore.relational
    monkeypatch.setattr(dpcore.relational, "load_csv", no_csv)
    monkeypatch.setattr(dpcore.relational, "read_csv", no_csv)
    monkeypatch.setattr(csv, "reader", no_csv)
    code, out = _run(["query", "--session", sid.strip(), "--plan", str(workspace / "plan.txt"),
                      "--mechanism", "laplace", "--eps", "1.0", "--config", cfg], capsys)
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_failed_session_save_keeps_the_previous_file(workspace, capsys, monkeypatch):
    cfg = str(workspace / "cfg.json")
    handle = _ingest(workspace, capsys)
    _, sid = _run(["session", "--dataset", handle, "--scope", "main", "--config", cfg], capsys)
    path = workspace / "state" / "sessions.json"
    before = path.read_text()

    def torn_dump(obj, fh, **kwargs):
        fh.write('{"counter": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    code = main(["session", "--dataset", handle, "--scope", "main", "--config", cfg])
    monkeypatch.undo()
    captured = capsys.readouterr()
    assert code == 1 and captured.err == "error: disk full\n"
    assert path.read_text() == before
    assert sorted(os.listdir(workspace / "state")) == ["datasets", "sessions.json"]
    code, out = _run(["budget", "--session", sid.strip(), "--config", cfg], capsys)
    assert code == 0 and "spent=" in out


def test_cli_import_leaves_out_the_audit_package():
    src = os.path.dirname(os.path.dirname(dpcore.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dpcore.cli; print(sorted({'scipy', 'dpcore.audit'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def _cold(*argv, **env) -> subprocess.CompletedProcess:
    """`python *argv` in a fresh interpreter, with src/ on the path and
    OPENBLAS_NUM_THREADS unset unless `env` sets it."""
    src = os.path.dirname(os.path.dirname(dpcore.__file__))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, *argv], env={**base, "PYTHONPATH": src, **env},
                          capture_output=True, text=True, timeout=120)


def test_cold_import_leaves_out_numpy_and_the_query_path():
    proc = _cold("-c", "import sys\n"
                 "names = {'numpy', 'dpcore.service', 'dpcore.registry', 'subprocess'}\n"
                 "import dpcore\n"
                 "print(sorted(names & set(sys.modules)))\n"
                 "import dpcore.cli\n"
                 "print(sorted(names & set(sys.modules)))\n")
    assert proc.returncode == 0 and proc.stdout.splitlines() == ["[]", "[]"]


def test_audit_loads_no_query_path():
    proc = _cold("-c", "import sys, dpcore.cli\n"
                 "dpcore.cli.main(['audit', '--target', 'laplace_count', '--eps-grid', '1.0',"
                 " '--n-search', '1000', '--n-test', '1000', '--reps', '1'])\n"
                 "print(sorted({'dpcore.service', 'dpcore.registry'} & set(sys.modules)))\n")
    assert proc.returncode == 0 and "overall passed=" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


#: What reads data or draws noise, and what only those need.
_DATA_PATH = ("'numpy', 'cryptography', 'dpcore.gateway', 'dpcore.mechanisms', "
              "'dpcore.transforms', 'dpcore.relational', 'dpcore.randomness'")
#: The same with `cryptography` narrowed to its ciphers (`dpcore.randomness`
#: stays): a named ledger's digest is `cryptography`'s SHA-256, so its hash
#: module is loaded.
_NO_CIPHER_PATH = _DATA_PATH.replace("'cryptography'", "'cryptography.hazmat.primitives.ciphers'")


def test_cold_budget_prints_its_line_without_the_data_path(workspace, capsys):
    """A budget report is postprocessing: importing the service and the
    registry loads no module that reads data or draws noise, and neither
    does a fresh `dpcore budget`, which prints the spent, remaining, alpha
    and power bound that the ledger gives.  Its ledger digest loads
    `cryptography`'s hash module, but no cipher and no sampler."""
    cfg = str(workspace / "cfg.json")
    handle = _ingest(workspace, capsys)
    _, sid = _run(["session", "--dataset", handle, "--scope", "main", "--config", cfg], capsys)
    _run(["query", "--session", sid.strip(), "--plan", str(workspace / "plan.txt"),
          "--mechanism", "laplace", "--eps", "0.7", "--config", cfg], capsys)
    spent = 0.0
    for line in (workspace / "ledger.txt").read_text().splitlines():
        spent += PrivacyCharge.from_line(line).amount
    expected = (f"spent={spent!r} remaining={20.0 - spent!r} alpha=0.05 "
                f"power_bound={math.exp(spent) * 0.05!r}")
    proc = _cold("-c", "import sys, dpcore.service, dpcore.registry\n"
                 f"print(sorted({{{_DATA_PATH}}} & set(sys.modules)))\n"
                 "import dpcore.cli\n"
                 "code = dpcore.cli.main(['budget', '--session', sys.argv[1],"
                 " '--config', sys.argv[2]])\n"
                 f"print(code, sorted({{{_NO_CIPHER_PATH}}} & set(sys.modules)))\n",
                 sid.strip(), cfg)
    assert proc.returncode == 0 and proc.stdout.splitlines() == ["[]", expected, "0 []"]


def test_a_release_loads_no_second_openssl(workspace, capsys):
    """A cold `dpcore query`, and a `serve` daemon after it answered a query,
    load neither `hashlib` nor `_hashlib`: the ledger digest comes from the
    OpenSSL that `cryptography` bundles, which the sampler's ChaCha20 loads."""
    cfg = str(workspace / "cfg.json")
    handle = _ingest(workspace, capsys)
    _, sid = _run(["session", "--dataset", handle, "--scope", "main", "--config", cfg], capsys)
    hashing = "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    query = _cold("-c", "import sys, dpcore.cli\n"
                  "code = dpcore.cli.main(['query', '--session', sys.argv[1], '--plan',"
                  " sys.argv[2], '--mechanism', 'laplace', '--eps', '0.5', '--config',"
                  " sys.argv[3]])\n"
                  "print(code)\n" + hashing,
                  sid.strip(), str(workspace / "plan.txt"), cfg)
    assert query.returncode == 0
    assert json.loads(query.stdout.splitlines()[0])["status"] == "ok"
    assert query.stdout.splitlines()[1:] == ["0", "[]"]
    sock_dir = tempfile.mkdtemp(prefix="dpcore-")
    try:
        serve = _cold("-c", "import json, socket, sys, threading\n"
                      "from dpcore.cli import CliState, _Server\n"
                      "server = _Server(sys.argv[3], CliState(sys.argv[1]))\n"
                      "threading.Thread(target=server.serve_forever, daemon=True).start()\n"
                      "with socket.socket(socket.AF_UNIX) as conn:\n"
                      "    conn.connect(sys.argv[3])\n"
                      "    conn.sendall(json.dumps({'cmd': 'query', 'session': sys.argv[2],"
                      " 'plan': 'count', 'mechanism': 'laplace', 'eps': 0.5}).encode() + b'\\n')\n"
                      "    print(json.loads(conn.makefile('rb').readline())['status'])\n" + hashing,
                      cfg, sid.strip(), os.path.join(sock_dir, "s"))
    finally:
        shutil.rmtree(sock_dir)
    assert serve.returncode == 0 and serve.stdout.splitlines() == ["ok", "[]"]


def test_a_release_imports_the_data_path_before_its_padded_window(workspace, capsys):
    """Every clock reading of a session open and a query, the one that opens
    the padded window first among them, comes after numpy and the gateway are
    imported: importing them inside the window would push the work past its
    deadline."""
    cfg = str(workspace / "cfg.json")
    handle = _ingest(workspace, capsys)
    proc = _cold("-c", "import sys\n"
                 "from dpcore.cli import CliState\n"
                 "from dpcore.service import QueryRequest, QueryService, SystemClock\n"
                 "class Clock(SystemClock):\n"
                 "    loaded = []\n"
                 "    def now(self):\n"
                 "        self.loaded.append({'numpy', 'dpcore.gateway'} <= set(sys.modules))\n"
                 "        return super().now()\n"
                 "with CliState(sys.argv[1]) as state:\n"
                 "    service = QueryService(state.registry, state.accountant, state.config,\n"
                 "                           clock=Clock())\n"
                 "    cold = 'numpy' not in sys.modules\n"
                 "    session = service.open_session(sys.argv[2], 'main')\n"
                 "    opened = len(Clock.loaded)\n"
                 "    status = service.run_query(session, QueryRequest('count', 'laplace', 1.0))\n"
                 "print(cold, status.status, opened, len(Clock.loaded) - opened, Clock.loaded)\n",
                 cfg, handle)
    assert proc.returncode == 0, proc.stderr
    # Each padded window takes two readings: its start and the overrun check.
    assert proc.stdout.strip() == "True ok 2 2 [True, True, True, True]"


def test_no_command_leaves_its_ledger_file_open(workspace, capsys, monkeypatch):
    """Run in-process, ingest, session, query and budget close the ledger
    file on every exit, errors included, so no ResourceWarning is raised."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    cfg = str(workspace / "cfg.json")
    plan = str(workspace / "plan.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        handle = _ingest(workspace, capsys)
        _, sid = _run(["session", "--dataset", handle, "--scope", "main", "--config", cfg],
                      capsys)
        for argv in (["query", "--session", sid.strip(), "--plan", plan],
                     ["query", "--session", "s99", "--plan", plan],
                     ["query", "--session", sid.strip(), "--plan", "no-such-plan"]):
            _run([*argv, "--mechanism", "laplace", "--eps", "0.5", "--config", cfg], capsys)
        for argv in (["budget", "--session", sid.strip()], ["budget", "--session", "s99"],
                     ["session", "--dataset", "ds99", "--scope", "main"],
                     ["ingest", "--csv", "no-such.csv", "--schema", "no-such.schema"]):
            _run([*argv, "--config", cfg], capsys)
        (workspace / "state" / "sessions.json").write_text("[]")
        assert _run(["budget", "--session", sid.strip(), "--config", cfg], capsys)[0] == 1
        gc.collect()
    assert [hook.exc_value for hook in unraisable] == []


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_cli_numpy_starts_no_blas_threads():
    """dpcore makes no BLAS call, so numpy, imported by a subcommand's own
    code, starts no OpenBLAS worker threads."""
    proc = _cold("-c", "import sys, dpcore.cli\n"
                 "dpcore.cli.main(['audit', '--target', 'laplace_count', '--eps-grid', '1.0',"
                 " '--n-search', '1000', '--n-test', '1000', '--reps', '1'])\n"
                 "assert 'numpy' in sys.modules\n"
                 "print(next(l for l in open('/proc/self/status') if l.startswith('Threads:')))\n")
    assert proc.returncode == 0 and proc.stdout.split()[-2:] == ["Threads:", "1"]


@pytest.mark.parametrize("given, seen", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_cli_sets_one_blas_thread_unless_the_caller_chose(given, seen):
    proc = _cold("-c", "import os, dpcore.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                 **given)
    assert proc.returncode == 0 and proc.stdout.strip() == seen


@pytest.mark.parametrize("given", [None, "3"])
def test_audit_external_command_gets_the_callers_environment(workspace, given):
    """The external program runs in the environment dpcore was started
    with, not with the CLI's own OpenBLAS setting."""
    seen, script = workspace / "seen.txt", workspace / "mech.py"
    script.write_text(
        "import os, random, sys\n"
        f"open({str(seen)!r}, 'a').write(repr(os.environ.get('OPENBLAS_NUM_THREADS')) + '\\n')\n"
        "eps, n = float(sys.argv[2]), int(sys.argv[3])\n"
        "r = random.Random()\n"
        "print('\\n'.join(str(r.expovariate(eps) - r.expovariate(eps)) for _ in range(n)))\n"
    )
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    proc = _cold("-m", "dpcore.cli", "audit", "--target", f"{sys.executable} {script}",
                 "--external", "--eps-grid", "1.0", "--n-search", "1000", "--n-test", "1000",
                 "--reps", "1", **env)
    assert proc.returncode in (0, 2) and "overall passed=" in proc.stdout
    lines = seen.read_text().splitlines()
    assert lines and set(lines) == {repr(given)}


def _start_server(state: CliState):
    """An in-process `serve` on a short socket path; the server, its
    thread and the path."""
    sock_dir = tempfile.mkdtemp(prefix="dpcore-")  # a unix socket path must stay short
    server = _Server(os.path.join(sock_dir, "s"), state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, os.path.join(sock_dir, "s")


def _stop_server(server, thread, path) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.state.accountant.close()
    shutil.rmtree(os.path.dirname(path))


def _ask(path: str, *lines: bytes) -> list:
    """Send `lines` on one connection to `path`; the replies, parsed."""
    with socket.socket(socket.AF_UNIX) as conn:
        conn.settimeout(60)
        conn.connect(path)
        with conn.makefile("rb") as reader:
            replies = []
            for line in lines:
                conn.sendall(line + b"\n")
                replies.append(json.loads(reader.readline()))
    return replies


def test_serve_protocol(workspace, capsys):
    cfg = str(workspace / "cfg.json")
    handle = _ingest(workspace, capsys)
    server, thread, path = _start_server(CliState(cfg))
    try:
        opened, = _ask(path, json.dumps({"cmd": "session", "dataset": handle,
                                         "scope": "main"}).encode())
        assert opened["status"] == "ok"
        sid = opened["session"]
        rejected = {"status": "error", "code": "request rejected"}
        reply, budget, *refused = _ask(
            path,
            json.dumps({"cmd": "query", "session": sid, "plan": "count",
                        "mechanism": "laplace", "eps": 1.0}).encode(),
            json.dumps({"cmd": "budget", "session": sid}).encode(),
            b'{"cmd": "drop_ledger"}', b'{"cmd": "query", "session"')
        assert reply["status"] == "ok" and len(reply["values"]) == 1
        assert budget["status"] == "ok"
        assert set(budget) == {"status", "spent", "remaining", "alpha", "power_bound"}
        assert budget["remaining"] == reply["remaining_budget"]
        assert budget["spent"] + budget["remaining"] == pytest.approx(20.0)
        assert refused == [rejected, rejected]
    finally:
        _stop_server(server, thread, path)
    # The session the daemon opened is on disk for later commands.
    code, out = _run(["budget", "--session", sid, "--config", cfg], capsys)
    assert code == 0


def _serve(workspace, path):
    """The argv and environment of a `dpcore serve` process on `path`."""
    src = os.path.dirname(os.path.dirname(dpcore.__file__))
    argv = [sys.executable, "-m", "dpcore.cli", "serve", "--config",
            str(workspace / "cfg.json"), "--socket", path]
    return argv, {**os.environ, "PYTHONPATH": src}


def test_serve_refuses_a_socket_path_that_is_a_regular_file(workspace):
    """`serve` removed whatever file `--socket` named and put its socket
    there; a file that is not a socket is now refused and left alone."""
    sock_dir = tempfile.mkdtemp(prefix="dpcore-")
    path = os.path.join(sock_dir, "precious.txt")
    with open(path, "w") as fh:
        fh.write("keep me\n")
    argv, env = _serve(workspace, path)
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10)
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert stat.S_ISREG(os.lstat(path).st_mode)
        with open(path) as fh:
            assert fh.read() == "keep me\n"
    finally:
        shutil.rmtree(sock_dir)


def test_serve_replaces_a_leftover_socket(workspace):
    """A socket left behind by a server that died is still replaced."""
    sock_dir = tempfile.mkdtemp(prefix="dpcore-")
    path = os.path.join(sock_dir, "s")
    with socket.socket(socket.AF_UNIX) as stale:
        stale.bind(path)  # the file stays after close, with no listener
    argv, env = _serve(workspace, path)
    daemon = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 10
        while True:
            assert daemon.poll() is None, "serve exited"
            try:
                with socket.socket(socket.AF_UNIX) as conn:
                    conn.connect(path)
                    conn.sendall(b'{"cmd": "nothing"}\n')
                    reply = conn.makefile("rb").readline()
                break
            except (ConnectionRefusedError, FileNotFoundError):
                assert time.monotonic() < deadline, "serve did not listen"
                time.sleep(0.05)
        assert json.loads(reply) == {"status": "error", "code": "request rejected"}
    finally:
        daemon.terminate()
        daemon.wait(timeout=10)
        shutil.rmtree(sock_dir)


def test_full_query_workflow(workspace, capsys):
    cfg = str(workspace / "cfg.json")
    _, handle = _run(["ingest", "--csv", str(workspace / "d.csv"),
                      "--schema", str(workspace / "d.schema"), "--config", cfg], capsys)
    handle = handle.strip()
    code, sid = _run(["session", "--dataset", handle, "--scope", "main",
                      "--config", cfg], capsys)
    assert code == 0
    sid = sid.strip()
    code, out = _run(["query", "--session", sid, "--plan", str(workspace / "plan.txt"),
                      "--mechanism", "laplace", "--eps", "1.0", "--config", cfg], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert len(payload["values"]) == 1
    code, out = _run(["budget", "--session", sid, "--config", cfg], capsys)
    assert code == 0
    assert "power_bound=" in out and "remaining=" in out


def test_budget_persists_across_invocations(workspace, capsys):
    cfg = str(workspace / "cfg.json")
    _, handle = _run(["ingest", "--csv", str(workspace / "d.csv"),
                      "--schema", str(workspace / "d.schema"), "--config", cfg], capsys)
    _, sid = _run(["session", "--dataset", handle.strip(), "--scope", "main",
                   "--config", cfg], capsys)
    sid = sid.strip()
    for _ in range(3):
        _run(["query", "--session", sid, "--plan", str(workspace / "plan.txt"),
              "--mechanism", "laplace", "--eps", "5.0", "--config", cfg], capsys)
    # 0.2 startup + 3 * 5.0 would exceed 20: the last query must have been
    # denied by a fresh process reading the ledger, not in-memory state.
    code, out = _run(["budget", "--session", sid, "--config", cfg], capsys)
    spent = float(out.split("spent=")[1].split()[0])
    assert spent <= 20.0


def _query_with_n_hat(workspace, capsys, n_hat):
    """Open a session, store `n_hat` in sessions.json, query once; the exit
    code, the captured output and the ledger text before the query."""
    cfg = str(workspace / "cfg.json")
    handle = _ingest(workspace, capsys)
    _, sid = _run(["session", "--dataset", handle, "--scope", "main", "--config", cfg], capsys)
    path = workspace / "state" / "sessions.json"
    raw = json.loads(path.read_text())
    raw["sessions"][sid.strip()]["n_hat"] = n_hat
    path.write_text(json.dumps(raw))
    ledger = (workspace / "ledger.txt").read_text()
    code = main(["query", "--session", sid.strip(), "--plan", str(workspace / "plan.txt"),
                 "--mechanism", "laplace", "--eps", "1.0", "--config", cfg])
    return code, capsys.readouterr(), ledger


@pytest.mark.parametrize("n_hat", [math.nan, math.inf, -math.inf, "x", None])
def test_a_restored_session_without_a_finite_n_hat_gets_no_query(workspace, capsys, n_hat):
    """Such a session would be charged, then fail to compute its padding;
    one that is not a number would end in a traceback."""
    code, captured, ledger = _query_with_n_hat(workspace, capsys, n_hat)
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert (workspace / "ledger.txt").read_text() == ledger


def test_a_negative_n_hat_is_a_small_noisy_count_and_restores(workspace, capsys):
    """A noisy size estimate of a 3-row dataset is often below zero; the
    padding reads it as zero, so its session keeps working."""
    code, captured, ledger = _query_with_n_hat(workspace, capsys, -1.0)
    assert code == 0 and json.loads(captured.out)["status"] == "ok"
    after = (workspace / "ledger.txt").read_text().splitlines()
    assert len(after) == len(ledger.splitlines()) + 1


def test_a_config_without_a_ledger_is_refused(workspace, capsys):
    """Without a ledger file each process would start from a fresh budget,
    so every command refuses such a config before it grants anything."""
    handle = _ingest(workspace, capsys)
    _, sid = _run(["session", "--dataset", handle, "--scope", "main",
                   "--config", str(workspace / "cfg.json")], capsys)
    raw = json.loads((workspace / "cfg.json").read_text())
    del raw["ledger"]
    (workspace / "bare.json").write_text(json.dumps(raw))
    for argv in (["session", "--dataset", handle, "--scope", "main"],
                 ["query", "--session", sid.strip(), "--plan", str(workspace / "plan.txt"),
                  "--mechanism", "laplace", "--eps", "0.9"]):
        code = main(argv + ["--config", str(workspace / "bare.json")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: config must set ledger for CLI use\n"


@pytest.mark.parametrize("budget", [math.nan, math.inf])
def test_a_nan_or_unlimited_budget_gets_no_session(workspace, capsys, budget):
    """A NaN budget would grant every charge and is refused with the config;
    an unlimited one would make the startup estimate spend infinite epsilon.
    Either way: exit 1, one error line, nothing charged."""
    handle = _ingest(workspace, capsys)
    raw = json.loads((workspace / "cfg.json").read_text())
    raw["budgets"][0]["budget"] = budget
    (workspace / "cfg.json").write_text(json.dumps(raw))
    code = main(["session", "--dataset", handle, "--scope", "main",
                 "--config", str(workspace / "cfg.json")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert (workspace / "ledger.txt").read_text() == ""


@pytest.mark.parametrize("key, value", [("xi", -1.0), ("overhead", math.nan)])
def test_a_schedule_that_does_not_pad_gets_no_session(workspace, capsys, key, value):
    """A padding schedule that cannot pad is refused with the config: exit 1,
    one error line, nothing charged."""
    handle = _ingest(workspace, capsys)
    raw = json.loads((workspace / "cfg.json").read_text())
    raw[key] = value
    (workspace / "cfg.json").write_text(json.dumps(raw))
    code = main(["session", "--dataset", handle, "--scope", "main",
                 "--config", str(workspace / "cfg.json")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {key} must be finite and nonnegative\n"
    assert (workspace / "ledger.txt").read_text() == ""

def test_missing_files_and_unreadable_config_values_get_one_error_line(workspace, capsys):
    """A file that cannot be opened, a number `float` cannot read and a budget
    spec without its budget each end the command with exit 1 and one
    `error:` line, not a traceback."""
    cfg = str(workspace / "cfg.json")
    missing = str(workspace / "missing")
    handle = _ingest(workspace, capsys)
    _, sid = _run(["session", "--dataset", handle, "--scope", "main", "--config", cfg], capsys)
    raw = json.loads((workspace / "cfg.json").read_text())
    for name, edit in (("xi.json", {"xi": "abc"}), ("spec.json", {"budgets": [{"id": "main"}]}),
                       ("list.json", {"budgets": "main"})):
        (workspace / name).write_text(json.dumps({**raw, **edit}))
    (workspace / "junk.json").write_text("{")
    cases = [
        (["query", "--session", sid.strip(), "--plan", missing, "--mechanism", "laplace",
          "--eps", "1.0", "--config", cfg], f"No such file or directory: {missing!r}"),
        (["budget", "--session", sid.strip(), "--config", missing], "No such file"),
        (["ingest", "--csv", missing, "--schema", str(workspace / "d.schema"),
          "--config", cfg], "No such file"),
    ] + [(["budget", "--session", sid.strip(), "--config", str(workspace / name)],
          "config holds an unreadable number or budget")
         for name in ("xi.json", "spec.json", "list.json", "junk.json")]
    for argv, message in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", argv
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        assert message in captured.err, (argv, captured.err)
    assert len((workspace / "ledger.txt").read_text().splitlines()) == 1  # the session's


def test_rejected_query_exits_nonzero(workspace, capsys):
    cfg = str(workspace / "cfg.json")
    _, handle = _run(["ingest", "--csv", str(workspace / "d.csv"),
                      "--schema", str(workspace / "d.schema"), "--config", cfg], capsys)
    _, sid = _run(["session", "--dataset", handle.strip(), "--scope", "main",
                   "--config", cfg], capsys)
    bad_plan = workspace / "bad.txt"
    bad_plan.write_text("limit 5\ncount\n")
    code, out = _run(["query", "--session", sid.strip(), "--plan", str(bad_plan),
                      "--mechanism", "laplace", "--eps", "1.0", "--config", cfg], capsys)
    assert code == 1
    assert json.loads(out)["code"] == "request rejected"


def test_no_seed_flags_anywhere():
    parser = build_parser()
    for action_group in parser._subparsers._group_actions:
        for name, sub in action_group.choices.items():
            for action in sub._actions:
                for opt in action.option_strings:
                    assert "seed" not in opt.lower(), (name, opt)


def test_audit_subcommand_flags_builtin_bug(workspace, capsys):
    code, out = _run(["audit", "--target", "bug:half_noise_laplace_count",
                      "--eps-grid", "1.0", "--n-search", "5000",
                      "--n-test", "20000", "--reps", "5",
                      "--report", str(workspace / "report.txt")], capsys)
    assert code == 2
    assert "overall passed=False" in out
    assert (workspace / "report.txt").read_text() == out


def test_audit_subcommand_passes_correct_target(capsys):
    code, out = _run(["audit", "--target", "laplace_count",
                      "--eps-grid", "1.0", "--n-search", "5000",
                      "--n-test", "20000", "--reps", "10"], capsys)
    assert code == 0
    assert "overall passed=True" in out


@pytest.mark.parametrize("target, code", [("laplace_count", 0),
                                          ("bug:half_noise_laplace_count", 2)])
def test_audit_of_a_builtin_target_leaves_no_ledger_open(target, code):
    """Each release of a built-in target is charged to an accountant that is
    closed before the call returns.  At --reps 5 the correct target exits 2
    in about 0.7% of runs, so this runs 10: in 600 runs at 10 the correct
    target always exited 0 and the bug always 2."""
    src = os.path.dirname(os.path.dirname(dpcore.__file__))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
                           "-m", "dpcore.cli", "audit", "--target", target, "--eps-grid", "1.0",
                           "--n-search", "1000", "--n-test", "1000", "--reps", "10"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert "ResourceWarning" not in proc.stderr
    assert proc.returncode == code and f"overall passed={code == 0}" in proc.stdout


def test_audit_external_command_protocol(workspace, capsys):
    """An external mechanism is exercised through the documented
    CMD <csv> <eps> <n> stdout protocol."""
    script = workspace / "mech.py"
    script.write_text(
        "#!/usr/bin/env python3\n"
        "import sys, csv\n"
        "import numpy as np\n"
        "path, eps, n = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])\n"
        "rows = list(csv.reader(open(path)))[1:]\n"
        "count = len(rows)\n"
        "noise = np.random.default_rng().laplace(0, 1.0/eps, size=n)\n"
        "print('\\n'.join(str(count + x) for x in noise))\n"
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    code, out = _run(["audit", "--target", f"python3 {script}", "--external",
                      "--eps-grid", "1.0", "--n-search", "1000",
                      "--n-test", "2000", "--reps", "2"], capsys)
    assert code in (0, 2)  # protocol works end to end; verdict is statistical
    assert "overall passed=" in out


def test_audit_external_command_starts_once_per_side_and_phase(workspace, capsys):
    """At 2000 search and 4000 test outcomes, the 40 repetitions of a pair
    form one group: two sides times two phases, over three pairs."""
    log = workspace / "starts.log"
    script = workspace / "mech.py"
    script.write_text(
        "import random, sys\n"
        f"open({str(log)!r}, 'a').write(' '.join(sys.argv[2:]) + '\\n')\n"
        "eps, n = float(sys.argv[2]), int(sys.argv[3])\n"
        "r = random.Random()\n"  # Laplace(1/eps): a difference of two exponentials
        "print('\\n'.join(str(r.expovariate(eps) - r.expovariate(eps)) for _ in range(n)))\n"
    )
    code, out = _run(["audit", "--target", f"{sys.executable} {script}", "--external",
                      "--eps-grid", "1.0", "--n-search", "2000",
                      "--n-test", "4000", "--reps", "40"], capsys)
    assert code in (0, 2) and "overall passed=" in out
    starts = log.read_text().splitlines()
    assert len(starts) <= 12
    assert sorted(starts) == sorted(["1.0 80000", "1.0 160000"] * 6)


@pytest.mark.parametrize("flags", [
    ["--n-test", "50"],
    ["--eps-grid", "0"], ["--eps-grid", "nan"], ["--eps-grid", "inf"], ["--eps-grid", "-1"],
    ["--eps-grid", "1e-4"],
])
def test_audit_refuses_vacuous_settings(flags):
    """Too few test samples, an epsilon that is not finite and positive, or
    one whose release falls under the mechanisms' eps/sensitivity floor (the
    bug target spends 2e-4) end in one `error:` line and exit 1, never a
    traceback or a pass."""
    src = os.path.dirname(os.path.dirname(dpcore.__file__))
    argv = ["audit", "--target", "bug:half_noise_laplace_count", "--eps-grid", "1.0",
            "--n-search", "1000", "--n-test", "2000", "--reps", "1", *flags]
    proc = subprocess.run([sys.executable, "-m", "dpcore.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_unknown_builtin_target_errors(capsys):
    code = main(["audit", "--target", "nonexistent"])
    assert code == 1


def _cli(*argv) -> subprocess.Popen:
    """A `dpcore` process with src/ on the path; stdout and stderr piped."""
    src = os.path.dirname(os.path.dirname(dpcore.__file__))
    return subprocess.Popen([sys.executable, "-m", "dpcore.cli", *argv],
                            env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_concurrent_sessions_get_distinct_ids_on_their_own_scopes(workspace, capsys):
    """Each id is `s<seq>` of the caller's start-up charge, so no two
    processes hand out one id, and `sessions.json` keeps every session
    with the scope its caller asked for."""
    raw = json.loads((workspace / "cfg.json").read_text())
    raw["budgets"] = [{"id": "A", "budget": 20.0}, {"id": "B", "budget": 20.0}]
    raw["overhead"] = 0.05
    (workspace / "cfg.json").write_text(json.dumps(raw))
    handle = _ingest(workspace, capsys)
    scopes = ["A", "B"] * 8
    procs = [_cli("session", "--dataset", handle, "--scope", scope,
                  "--config", str(workspace / "cfg.json")) for scope in scopes]
    ids = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        ids.append(out.strip())
    assert len(set(ids)) == 16
    saved = json.loads((workspace / "state" / "sessions.json").read_text())
    assert set(saved) == {"sessions"}
    assert {sid: s["scope"] for sid, s in saved["sessions"].items()} == dict(zip(ids, scopes))
    charges = [PrivacyCharge.from_line(line)
               for line in (workspace / "ledger.txt").read_text().splitlines()]
    assert {f"s{c.seq}": c.scope_id for c in charges} == dict(zip(ids, scopes))


def test_serve_finds_a_session_a_cli_process_opened(workspace, capsys):
    """A session opened by a CLI process after `serve` started is answered by
    the server, and a session the server opens later keeps it in the file."""
    cfg = str(workspace / "cfg.json")
    handle = _ingest(workspace, capsys)
    server, thread, path = _start_server(CliState(cfg))
    try:
        proc = _cli("session", "--dataset", handle, "--scope", "main", "--config", cfg)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        sid = out.strip()
        query = {"cmd": "query", "session": sid, "plan": "count", "mechanism": "laplace",
                 "eps": 1.0}
        reply, budget = _ask(path, json.dumps(query).encode(),
                             json.dumps({"cmd": "budget", "session": sid}).encode())
        assert reply["status"] == "ok" and len(reply["values"]) == 1
        assert budget["status"] == "ok" and budget["remaining"] == reply["remaining_budget"]
        opened, = _ask(path, json.dumps({"cmd": "session", "dataset": handle,
                                         "scope": "main"}).encode())
        assert opened["status"] == "ok"
    finally:
        _stop_server(server, thread, path)
    saved = json.loads((workspace / "state" / "sessions.json").read_text())["sessions"]
    assert set(saved) == {sid, opened["session"]}


def test_serve_refuses_an_over_long_request_line(workspace, capsys):
    """A line longer than the cap gets the one error and its connection is
    closed; the server still answers new connections."""
    server, thread, path = _start_server(CliState(str(workspace / "cfg.json")))
    rejected = {"status": "error", "code": "request rejected"}
    try:
        with socket.socket(socket.AF_UNIX) as conn:
            conn.settimeout(60)
            conn.connect(path)
            conn.sendall(b"x" * MAX_REQUEST_LINE + b"\n")
            with conn.makefile("rb") as reader:
                assert json.loads(reader.readline()) == rejected
                assert reader.readline() == b""  # closed
        assert _ask(path, b'{"cmd": "nothing"}') == [rejected]
    finally:
        _stop_server(server, thread, path)


def test_serve_ends_a_hung_up_connection_quietly(workspace, capsys):
    """A client that hangs up without reading its replies leaves no
    traceback on the server's stderr."""
    server, thread, path = _start_server(CliState(str(workspace / "cfg.json")))
    try:
        with socket.socket(socket.AF_UNIX) as conn:
            conn.connect(path)
            conn.sendall(b'{"cmd": "nothing"}\n' * 1000)
        # Connections are accepted in order, so the first one was handled.
        assert _ask(path, b'{"cmd": "nothing"}')[0]["status"] == "error"
    finally:
        _stop_server(server, thread, path)
    assert capsys.readouterr().err == ""


_BUDGET = 4.0  # of each of the machine's scopes, A and B


class TwoStatesOnOneDirectory(RuleBasedStateMachine):
    """Two `CliState`s on one state directory, as two processes (a `serve`
    and a command, say) hold them.  Every session id handed out keeps its
    own (dataset, scope) for good, and a budget report's `spent` is the
    left-to-right sum of the granted charges that the ledger holds.  With
    overhead and xi at 0, no rule sleeps."""

    sessions = Bundle("sessions")

    def __init__(self):
        super().__init__()
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="dpcore-"))
        self.ledger = self.dir / "ledger.txt"
        self.cfg = str(self.dir / "cfg.json")
        (self.dir / "cfg.json").write_text(json.dumps({
            "budgets": [{"id": "A", "budget": _BUDGET}, {"id": "B", "budget": _BUDGET}],
            "xi": 0.0, "overhead": 0.0, "ledger": str(self.ledger),
            "state_dir": str(self.dir / "state")}))
        csv_path, schema_path = str(self.dir / "d.csv"), str(self.dir / "d.schema")
        pathlib.Path(csv_path).write_text("c0,c1\n10,0\n20,1\n30,0\n")
        pathlib.Path(schema_path).write_text("c0 int 0 100\nc1 int 0 1\n")
        self.states = [CliState(self.cfg), CliState(self.cfg)]
        self.handles = []
        for state in self.states:
            self.handles.append(state.registry.ingest_files(csv_path, schema_path))
            state.persist_dataset(self.handles[-1], csv_path, schema_path)
        self.opened = {}  # session id -> (dataset, scope), as handed out

    def teardown(self):
        for state in self.states:
            state.accountant.close()
        shutil.rmtree(self.dir)

    def _granted(self) -> list:
        """The ledger's whole lines, read back; a torn tail is no charge."""
        text = self.ledger.read_bytes().decode("utf-8")
        return [PrivacyCharge.from_line(line) for line in text.split("\n")[:-1]]

    def _spent(self, scope: str) -> float:
        spent = 0.0  # left to right, as the accountant adds (no compensated sum())
        for charge in self._granted():
            if charge.scope_id == scope:
                spent += charge.amount
        return spent

    @rule(target=sessions, i=st.integers(0, 1), dataset=st.integers(0, 1),
          scope=st.sampled_from("AB"))
    def open_session(self, i, dataset, scope):
        before = len(self._granted())
        req = {"cmd": "session", "dataset": self.handles[dataset], "scope": scope}
        try:
            sid = _answer(self.states[i], req)["session"]
        except BudgetExceededError:
            assert len(self._granted()) == before
            return multiple()
        assert sid not in self.opened
        assert [(f"s{c.seq}", c.scope_id) for c in self._granted()[before:]] == [(sid, scope)]
        self.opened[sid] = (self.handles[dataset], scope)
        return sid

    @rule(i=st.integers(0, 1), sid=sessions, eps=st.sampled_from([0.25, 0.5, 1.5]))
    def query(self, i, sid, eps):
        scope = self.opened[sid][1]
        before, spent = len(self._granted()), self._spent(scope)
        out = _answer(self.states[i], {"cmd": "query", "session": sid, "plan": "count",
                                       "mechanism": "laplace", "eps": eps})
        granted = [(c.scope_id, c.amount) for c in self._granted()[before:]]
        assert out["status"] == ("ok" if spent + eps <= _BUDGET else "error")
        assert granted == ([(scope, eps)] if out["status"] == "ok" else [])

    @rule(i=st.integers(0, 1), sid=sessions)
    def budget(self, i, sid):
        out = _answer(self.states[i], {"cmd": "budget", "session": sid})
        assert out["spent"] == self._spent(self.opened[sid][1])
        assert out["remaining"] == _BUDGET - out["spent"]

    @rule(i=st.integers(0, 1))
    def restore(self, i):
        self.states[i].accountant.close()
        self.states[i] = CliState(self.cfg)

    @rule()
    def tear_the_tail(self):
        """The first half of a charge whose writer died mid-line."""
        line = f"seq={len(self._granted()) + 1} scope=A amount=0.5 mechanism=laplace time=1.0"
        with open(self.ledger, "ab") as fh:
            fh.write(line[:len(line) // 2].encode("utf-8"))

    @rule(at=st.integers(0, 1 << 10), digest=st.booleans())
    def corrupt_the_checkpoint(self, at, digest):
        """Cut `<ledger>.ckpt` short, or give it another digest."""
        ckpt = pathlib.Path(f"{self.ledger}.ckpt")
        raw = ckpt.read_bytes() if ckpt.exists() else b""
        if digest:
            ckpt.write_bytes(re.sub(rb'"sha256": "[0-9a-f]*"', b'"sha256": "%064x"' % at, raw))
        else:
            ckpt.write_bytes(raw[:at])

    @invariant()
    def every_id_keeps_its_dataset_and_scope(self):
        for sid, (dataset, scope) in self.opened.items():
            for state in self.states:
                session = state.session(sid)
                assert (session.dataset, session.scope.scope_id) == (dataset, scope)


TestTwoStatesOnOneDirectory = TwoStatesOnOneDirectory.TestCase
TestTwoStatesOnOneDirectory.settings = settings(max_examples=25, stateful_step_count=20,
                                                deadline=None)
