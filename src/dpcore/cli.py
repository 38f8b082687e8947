"""`dpcore` command line interface.

Subcommands: ingest, session, query, budget, audit, serve.  State (datasets,
sessions, the charge ledger) persists under the config's state_dir so
budgets survive across invocations.  There are, deliberately, no
seed-related flags or environment variables anywhere in this interface.
Each subcommand imports the layers it runs, so importing this module loads
no numpy.  `run` is the process entry point; `main` runs one command.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import gc
import json
import math
import os
import stat
import sys
from typing import NoReturn

from .errors import BudgetExceededError, ContractViolation

#: The environment dpcore was started with: `--external` commands run in it.
_CALLER_ENV = dict(os.environ)
# dpcore makes no BLAS call, so an OpenBLAS thread pool is only start-up
# cost.  Set before numpy is first imported; a caller's own value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


class CliState:
    """Service wiring plus on-disk persistence for CLI invocations.  As a
    context manager it closes its ledger file on exit."""

    def __init__(self, config_path: str) -> None:
        from .registry import DatasetRegistry
        from .service import QueryService, ServiceConfig, build_accountant

        self.config = ServiceConfig.from_file(config_path)
        if not self.config.state_dir:
            raise ContractViolation("config must set state_dir for CLI use")
        if not self.config.ledger_path:
            raise ContractViolation("config must set ledger for CLI use")
        self.state_dir = self.config.state_dir
        os.makedirs(os.path.join(self.state_dir, "datasets"), exist_ok=True)
        self.accountant = build_accountant(self.config)
        self.registry = DatasetRegistry(os.path.join(self.state_dir, "datasets"))
        self.service = QueryService(self.registry, self.accountant, self.config)
        try:
            self._load_sessions()
        except BaseException:  # a refused sessions.json leaves no ledger file open
            self.accountant.close()
            raise

    def __enter__(self) -> "CliState":
        return self

    def __exit__(self, *exc) -> None:
        self.accountant.close()

    # -- persistence -------------------------------------------------------

    def _sessions_path(self) -> str:
        return os.path.join(self.state_dir, "sessions.json")

    def _load_sessions(self) -> None:
        try:
            with open(self._sessions_path(), "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            return
        except ValueError:  # bytes that are not UTF-8, or text that is not JSON
            raise ContractViolation("sessions.json is unreadable") from None
        self.service.restore_sessions(raw)

    def save_sessions(self) -> None:
        """Merge into `sessions.json` under an exclusive `flock` on `state_dir`,
        so no process drops another's session.  Never called inside a charge."""
        fd = os.open(self.state_dir, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            self._load_sessions()
            with _replaced(self._sessions_path(), "w") as fh:
                json.dump(self.service.dump_sessions(), fh)
        finally:
            os.close(fd)

    def session(self, session_id: str):
        """The session, rereading `sessions.json` for one another process opened."""
        try:
            return self.service.session(session_id)
        except ContractViolation:
            self._load_sessions()
            return self.service.session(session_id)

    def answer(self, req: dict) -> dict:
        """Answer a session, query or budget request, for the CLI and `serve`
        alike.  Errors raise, an unknown request too, except a refused query,
        answered in its padded error shape."""
        cmd = req.get("cmd")
        if cmd == "session":
            session = self.service.open_session(req["dataset"], req["scope"])
            self.save_sessions()
            return {"status": "ok", "session": session.session_id}
        if cmd == "query":
            from .service import QueryRequest

            request = QueryRequest(req["plan"], req["mechanism"], float(req["eps"]))
            return vars(self.service.run_query(self.session(req["session"]), request))
        if cmd == "budget":
            status = self.service.budget_status(self.session(req["session"]))
            return {"status": "ok", **vars(status)}
        raise ContractViolation(f"unknown request: {cmd!r}")

    def persist_dataset(self, handle: str, csv_path: str, sidecar_path: str) -> None:
        """Store an ingested handle as its sidecar and the record array the
        registry holds for it, so no later command parses the CSV again.
        `csv_path` is not read.  `table.npy` is written last."""
        import shutil

        import numpy as np

        d = os.path.join(self.state_dir, "datasets", handle)  # claimed by `register`
        shutil.copyfile(sidecar_path, os.path.join(d, "schema.txt"))
        with _replaced(os.path.join(d, "table.npy"), "wb") as fh:
            np.save(fh, self.registry.table(handle).array, allow_pickle=False)


@contextlib.contextmanager
def _replaced(path: str, mode: str):
    """Write to a temporary file and rename it over `path`, so a failed
    write leaves the previous file whole."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_ingest(args) -> int:
    with CliState(args.config) as state:
        handle = state.registry.ingest_files(args.csv, args.schema)
        state.persist_dataset(handle, args.csv, args.schema)
    # Nothing data-derived is printed: no row count, no ranges.
    print(handle)
    return 0


def _cmd_session(args) -> int:
    with CliState(args.config) as state:
        out = state.answer({"cmd": "session", "dataset": args.dataset, "scope": args.scope})
    print(out["session"])
    return 0


def _cmd_query(args) -> int:
    with CliState(args.config) as state:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan_text = fh.read()
        out = state.answer({"cmd": "query", "session": args.session, "plan": plan_text,
                            "mechanism": args.mechanism, "eps": args.eps})
    sys.stdout.buffer.write(json.dumps(out, sort_keys=True).encode("utf-8") + b"\n")
    return 0 if out["status"] == "ok" else 1


def _cmd_budget(args) -> int:
    with CliState(args.config) as state:
        out = state.answer({"cmd": "budget", "session": args.session})
    print(" ".join(f"{key}={out[key]!r}" for key in ("spent", "remaining", "alpha",
                                                      "power_bound")))
    return 0


def _external_target(command: str):
    """Wrap an external command as a MechanismUnderTest.

    The command, split as a POSIX shell would, is invoked as: CMD <csv-path>
    <eps> <n>; it must print n outcomes, one per line, on stdout, and exit 0.
    """
    import csv as csv_mod
    import shlex
    import subprocess
    import tempfile

    import numpy as np

    from .audit import MechanismUnderTest

    def run_many(table, eps, rng, n):
        with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
            writer = csv_mod.writer(fh)
            writer.writerow(table.schema.names)
            writer.writerows(table.rows)
            path = fh.name
        try:
            out = subprocess.run([*shlex.split(command), path, str(eps), str(n)],
                                 capture_output=True, text=True, env=_CALLER_ENV)
            if out.returncode:
                raise ContractViolation(f"--target exited with status {out.returncode}")
        finally:
            os.unlink(path)
        return np.array([float(line) for line in out.stdout.split()])

    return MechanismUnderTest(f"external:{command}", run_many=run_many)


def _audit_eps(text: str) -> float:
    try:
        eps = float(text)
    except ValueError:
        eps = math.nan
    if not (math.isfinite(eps) and eps > 0):
        raise ContractViolation(f"--eps-grid: {text!r} is not a finite epsilon > 0")
    return eps


def _cmd_audit(args) -> int:
    from .audit import BUILTIN_TARGETS, black_box_battery, default_neighbor_suite
    from .randomness import RandomSource
    from .relational import parse_schema

    if args.target in BUILTIN_TARGETS:
        target = BUILTIN_TARGETS[args.target]()
    elif args.external:
        target = _external_target(args.target)
    else:
        raise ContractViolation(f"unknown builtin target {args.target!r}")
    suite = default_neighbor_suite(parse_schema("c0 int 0 100\nc1 int 0 1"))
    eps_values = [_audit_eps(x) for x in args.eps_grid.split(",")]
    report = black_box_battery(
        target, suite, eps_values, RandomSource.from_os_entropy(),
        n_search=args.n_search, n_test=args.n_test, repetitions=args.reps,
    )
    sys.stdout.write(report.to_text())
    return report.exit_code


def _cmd_serve(args) -> int:
    from .daemon import Server

    # Only a socket left by an earlier server is replaced; any other file
    # at the path is refused and left alone.
    if os.path.lexists(args.socket):
        if not stat.S_ISSOCK(os.lstat(args.socket).st_mode):
            raise ContractViolation(f"--socket {args.socket} exists and is not a socket")
        os.unlink(args.socket)
    with CliState(args.config) as state, Server(args.socket, state) as server:
        gc.enable()  # a long-lived daemon collects as any process does
        server.serve_forever()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpcore")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="register a CSV dataset with its schema sidecar")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("session", help="open a query session against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--scope", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_session)

    p = sub.add_parser("query", help="run a plan through a mechanism")
    p.add_argument("--session", required=True)
    p.add_argument("--plan", required=True, help="plan file, one step per line")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("budget", help="report spent/remaining budget", description=(
        "Report a session's spent and remaining budget.  Epsilon counts rows, not "
        "persons: a person with m rows in a dataset loses up to m*eps to a release "
        "booked as eps, and loses the sum of what every scope used on that dataset "
        "spent, while this reports one scope."))
    p.add_argument("--session", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser("audit", help="black-box DP audit of a mechanism")
    p.add_argument("--target", required=True,
                   help="builtin mechanism name or external command (with --external)")
    p.add_argument("--external", action="store_true")
    p.add_argument("--eps-grid", default="0.5,1.0,2.0")
    p.add_argument("--n-search", type=int, default=50_000)
    p.add_argument("--n-test", type=int, default=100_000)
    p.add_argument("--reps", type=int, default=50,
                   help="repetitions per neighbour pair and epsilon; an entry passes when "
                        "the mean of its p-values exceeds 0.3, which a correct mechanism "
                        "misses more often at few repetitions: the correct laplace_count at "
                        "--n-search 1000 --n-test 1000 exited 2 in 317, 120, 8, 0 and 0 of "
                        "1000 runs at --reps 1, 2, 5, 10 and 50")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("serve", help="line-delimited JSON protocol over a unix socket")
    p.add_argument("--config", required=True)
    p.add_argument("--socket", required=True)
    p.set_defaults(func=_cmd_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The process entry point: the `dpcore` script and `python -m dpcore.cli`.

    A command lives for a fraction of a second, so the cyclic GC would only
    walk its heap: collection is off while the command runs, and the heap is
    frozen before exit, so the interpreter's last collection skips it too.
    `serve` turns collection back on.  `main` keeps whatever GC state its
    caller has, so tests and library callers still collect what they leak."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
