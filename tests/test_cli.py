import json
import math
import os
import shutil
import socket
import stat
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest

import dpcore
from dpcore.cli import CliState, _Server, build_parser, main
from dpcore.errors import ContractViolation
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


def test_serve_protocol(workspace, capsys):
    cfg = str(workspace / "cfg.json")
    handle = _ingest(workspace, capsys)
    # A unix socket path must stay short, so it does not live under tmp_path.
    sock_dir = tempfile.mkdtemp(prefix="dpcore-")
    server = _Server(os.path.join(sock_dir, "s"), CliState(cfg))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.socket(socket.AF_UNIX) as conn:
            conn.connect(os.path.join(sock_dir, "s"))
            reader = conn.makefile("rb")

            def ask(line: bytes) -> dict:
                conn.sendall(line + b"\n")
                return json.loads(reader.readline())

            opened = ask(json.dumps({"cmd": "session", "dataset": handle,
                                     "scope": "main"}).encode())
            assert opened["status"] == "ok"
            sid = opened["session"]
            reply = ask(json.dumps({"cmd": "query", "session": sid, "plan": "count",
                                    "mechanism": "laplace", "eps": 1.0}).encode())
            assert reply["status"] == "ok" and len(reply["values"]) == 1
            budget = ask(json.dumps({"cmd": "budget", "session": sid}).encode())
            assert budget["status"] == "ok"
            assert budget["remaining"] == reply["remaining_budget"]
            assert budget["spent"] + budget["remaining"] == pytest.approx(20.0)
            rejected = {"status": "error", "code": "request rejected"}
            assert ask(b'{"cmd": "drop_ledger"}') == rejected
            assert ask(b'{"cmd": "query", "session"') == rejected
            reader.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.state.accountant.close()
        shutil.rmtree(sock_dir)
    # The session the daemon opened is on disk for later commands.
    code, out = _run(["budget", "--session", sid, "--config", cfg], capsys)
    assert code == 0


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
])
def test_audit_refuses_vacuous_settings(flags):
    """Too few test samples, or an epsilon that is not finite and positive,
    end in one `error:` line and exit 1, never a traceback or a pass."""
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
