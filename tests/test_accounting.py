import fcntl
import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dpcore
from dpcore.accounting import (
    Accountant,
    PURE_EPS,
    PrivacyCharge,
    power_bound,
    replay_spent,
)
from dpcore.errors import (
    BUDGET_EXCEEDED_MESSAGE,
    BudgetExceededError,
    ContractViolation,
    ParameterError,
    UnknownScopeError,
)
from dpcore.service import ServiceConfig, build_accountant
from oracles import linear_query_epsilon, max_column_l1, verify_accounting


# -- charges and the ledger ----------------------------------------------------

def test_charge_records_and_decrements(accountant, scope):
    c = scope.charge(0.5, "laplace")
    assert isinstance(c, PrivacyCharge)
    assert accountant.spent("main") == 0.5
    assert scope.remaining() == pytest.approx(1e9 - 0.5)
    assert accountant.ledger[-1] == c  # read back from the ledger file


def test_charge_line_roundtrip():
    c = PrivacyCharge(seq=7, scope_id="main", kind=PURE_EPS,
                      amount=0.125, mechanism="laplace", timestamp=12.5)
    assert PrivacyCharge.from_line(c.to_line()) == c


def test_ledger_file_is_written_before_release(tmp_path):
    path = tmp_path / "ledger.txt"
    acct = Accountant(ledger_path=str(path))
    acct.create_scope("s", PURE_EPS, 10.0)
    acct.scope("s").charge(0.25, "laplace")
    # The line is on disk immediately, not at close().
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    assert len(lines) == 1
    assert PrivacyCharge.from_line(lines[0]).amount == 0.25
    acct.close()


def test_replay_spent_reproduces_float_order(accountant, scope):
    amounts = [0.1, 0.2, 0.3, 0.07, 1e-9, 0.3]
    for a in amounts:
        scope.charge(a, "laplace")
    assert replay_spent(list(accountant.ledger))["main"] == accountant.spent("main")


def test_replay_ledger_restores_spend_and_seq(tmp_path):
    path = str(tmp_path / "ledger.txt")
    live = Accountant(ledger_path=path)
    live.create_scope("a", PURE_EPS, 10.0)
    live.create_scope("b", PURE_EPS, 10.0)
    for i, amount in enumerate([0.1, 0.2, 0.3, 0.07, 1e-9, 0.3, 1 / 3]):
        live.charge("ab"[i % 2], amount, "laplace")
    written = live.ledger
    live.close()
    restored = Accountant(ledger_path=path)
    restored.create_scope("a", PURE_EPS, 10.0)
    restored.create_scope("b", PURE_EPS, 10.0)
    restored.replay_ledger()
    # The same left-to-right float sum, not an approximation of it.
    assert restored.spent("a") == live.spent("a") and restored.spent("b") == live.spent("b")
    assert restored.ledger == written
    assert restored.charge("a", 0.5, "laplace").seq == 8
    restored.close()


def test_every_granted_amount_replays(tmp_path):
    """`to_line` writes the amount's repr, which replay must read back."""
    path = str(tmp_path / "ledger.txt")
    live = Accountant(ledger_path=path)
    live.create_scope("main", PURE_EPS, 10.0)
    for amount in (np.float64(0.5), -0.0, 1, 1e-300):
        live.charge("main", amount, "laplace")
    written = live.ledger
    live.close()
    restored = build_accountant(
        ServiceConfig(budgets=[{"id": "main", "budget": 10.0}], ledger_path=path))
    assert restored.spent("main") == live.spent("main") == 1.5 + 1e-300
    assert restored.ledger == written
    restored.close()


def test_replay_ledger_cuts_a_torn_tail(tmp_path):
    """A crash mid-append leaves a last line without its newline: the
    restart spends only the whole records and the next charge is a whole
    line with the next seq, not glued onto the fragment."""
    path = tmp_path / "ledger.txt"
    live = Accountant(ledger_path=str(path))
    live.create_scope("main", PURE_EPS, 10.0)
    live.charge("main", 0.25, "laplace")
    live.charge("main", 0.5, "laplace")
    live.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("seq=3 scope=main kind=pure-eps amo")
    config = ServiceConfig(budgets=[{"id": "main", "budget": 10.0}], ledger_path=str(path))
    restored = build_accountant(config)
    assert restored.spent("main") == 0.75
    record = restored.charge("main", 1.0, "laplace")
    assert record.seq == 3
    restored.close()
    lines = path.read_text().split("\n")
    assert len(lines) == 4 and lines[-1] == ""
    assert PrivacyCharge.from_line(lines[2]) == record
    again = build_accountant(config)
    assert again.spent("main") == 1.75
    again.close()


def test_charge_applies_another_accountants_append_first(tmp_path):
    """Two accountants on one ledger: each charge first applies what the
    other appended, so its budget check sees the other's spend."""
    path = str(tmp_path / "ledger.txt")
    a, b = Accountant(ledger_path=path), Accountant(ledger_path=path)
    for acct in (a, b):
        acct.create_scope("main", PURE_EPS, 1.0)
    a.charge("main", 0.25, "laplace")
    a.charge("main", 0.25, "laplace")
    b.charge("main", 0.375, "laplace")
    assert b.spent("main") == 0.875
    with pytest.raises(BudgetExceededError):
        a.charge("main", 0.25, "laplace")
    assert a.spent("main") == 0.875
    assert a.charge("main", 0.125, "laplace").seq == 4
    a.close()
    b.close()


def test_charge_cuts_a_torn_tail_past_its_offset(tmp_path):
    """A fragment left after this accountant's last line is cut by its next
    charge, which then writes a whole line of its own."""
    path = tmp_path / "ledger.txt"
    live = Accountant(ledger_path=str(path))
    live.create_scope("main", PURE_EPS, 10.0)
    live.charge("main", 0.25, "laplace")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("seq=2 scope=main kind=pure-eps amo")
    assert live.charge("main", 0.5, "laplace").seq == 2
    live.close()
    assert [PrivacyCharge.from_line(line).amount
            for line in path.read_text().splitlines()] == [0.25, 0.5]


class _SpiedLedger:
    """An accountant's ledger file that records the size of every `read`,
    returns at most `max_read` bytes from one, and stores only the first
    `keep` bytes of the next `write`, returning that count."""

    def __init__(self, fh, max_read=None, keep=None):
        self._fh, self.max_read, self.keep, self.reads = fh, max_read, keep, []

    def read(self, size=-1):
        if self.max_read is not None:
            size = self.max_read if size < 0 else min(size, self.max_read)
        data = self._fh.read(size)
        self.reads.append(len(data))
        return data

    def write(self, data):
        keep, self.keep = self.keep, None
        return self._fh.write(data if keep is None else data[:keep])

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.mark.parametrize("named", [True, False], ids=["named", "unnamed"])
def test_a_short_write_grants_nothing(tmp_path, named):
    """A write that stores part of a line raises and spends nothing; the next
    charge cuts the part and writes one whole line, and a replay reads only
    whole lines."""
    path = tmp_path / "ledger.txt"
    acct = Accountant(ledger_path=str(path) if named else None)
    acct.create_scope("main", PURE_EPS, 10.0)
    first = acct.charge("main", 0.25, "laplace")
    acct._ledger_file = _SpiedLedger(acct._ledger_file, keep=10)
    with pytest.raises(OSError):
        acct.charge("main", 0.5, "laplace")
    assert acct.spent("main") == 0.25 and acct._seq == 1
    if named:
        assert path.read_bytes() == (first.to_line() + "\n").encode() + b"seq=2 scop"
    second = acct.charge("main", 1.0, "laplace")
    assert second.seq == 2 and acct.ledger == (first, second)
    if named:
        assert path.read_text() == f"{first.to_line()}\n{second.to_line()}\n"
        restored = build_accountant(
            ServiceConfig(budgets=[{"id": "main", "budget": 10.0}], ledger_path=str(path)))
        assert restored.spent("main") == 1.25 and restored.ledger == (first, second)
        restored.close()
    acct.close()


def test_a_charge_reads_the_ledger_only_when_it_grew(tmp_path):
    """On a ledger no other accountant writes, a charge reads nothing; after
    another accountant's append, the next charge reads exactly that line and
    takes the seq after it."""
    path = str(tmp_path / "ledger.txt")
    a, b = Accountant(ledger_path=path), Accountant(ledger_path=path)
    for acct in (a, b):
        acct.create_scope("main", PURE_EPS, math.inf)
    a.charge("main", 0.25, "laplace")
    spy = a._ledger_file = _SpiedLedger(a._ledger_file)
    for _ in range(100):
        a.charge("main", 0.25, "laplace")
    assert spy.reads == []
    appended = b.charge("main", 0.5, "laplace")
    assert appended.seq == 102
    assert a.charge("main", 0.125, "laplace").seq == 103
    assert spy.reads == [len(appended.to_line()) + 1]
    assert a.spent("main") == 101 * 0.25 + 0.5 + 0.125
    a.close()
    b.close()


def test_an_unnamed_ledger_reads_back_its_charges_between_charges():
    """A temporary ledger has no O_APPEND, so each line goes where the file
    position is: reading the ledger back between charges, even one short
    read at a time, must leave it where the next line belongs."""
    acct = Accountant()
    acct.create_scope("main", PURE_EPS, math.inf)
    granted = []
    for i in range(40):
        granted.append(acct.charge("main", i / 7, "laplace"))
        if i % 3 == 0:
            assert acct.ledger == tuple(granted)
        if i == 20:
            acct._ledger_file = _SpiedLedger(acct._ledger_file, max_read=7)
    assert acct.ledger == tuple(granted)
    acct.close()


def test_a_checkpoint_loads_through_short_reads(tmp_path):
    """A cold start verifies the checkpoint's digest over the whole prefix
    even when each read returns only a few bytes."""
    path = tmp_path / "ledger.txt"
    _charge_mix(path, 200)
    prefix = path.read_bytes()
    (tmp_path / "ledger.txt.ckpt").write_text(json.dumps(
        {"offset": len(prefix), "seq": 200, "spent": {"a": "0.5", "b": "1.25"},
         "sha256": hashlib.sha256(prefix).hexdigest()}))
    acct = Accountant(ledger_path=str(path))
    for sid in "ab":
        acct.create_scope(sid, PURE_EPS, math.inf)
    acct._ledger_file = _SpiedLedger(acct._ledger_file, max_read=7)
    acct.replay_ledger()
    assert (acct.spent("a"), acct.spent("b"), acct._seq) == (0.5, 1.25, 200)
    assert max(acct._ledger_file.reads) == 7
    assert [c.to_line() for c in acct.ledger] == prefix.decode().splitlines()
    acct.close()


def test_a_closed_accountant_grants_nothing(tmp_path):
    """After close() a charge raises before it spends or writes anything."""
    path = tmp_path / "ledger.txt"
    acct = Accountant(ledger_path=str(path))
    acct.create_scope("main", PURE_EPS, 10.0)
    acct.charge("main", 0.25, "laplace")
    acct.close()
    before = path.read_bytes()
    with pytest.raises(ValueError):
        acct.charge("main", 0.5, "laplace")
    assert acct.spent("main") == 0.25 and path.read_bytes() == before
    unnamed = Accountant()
    unnamed.create_scope("main", PURE_EPS, 10.0)
    unnamed.close()
    with pytest.raises(ValueError):
        unnamed.charge("main", 0.5, "laplace")
    assert unnamed.spent("main") == 0.0


def test_charges_keep_no_in_memory_log(tmp_path):
    """The ledger file is the only record: 2e4 charges leave traced memory
    where it was, in place of a growing list of records."""
    acct = Accountant(ledger_path=str(tmp_path / "l.txt"))
    acct.create_scope("main", PURE_EPS, math.inf)
    acct.charge("main", 1e-3, "laplace")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20_000):
            acct.charge("main", 1e-3 + 1e-7 * i, "laplace")
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    acct.close()
    assert grown < 64 * 1024


def test_denials_leave_no_record_in_bounded_memory(tmp_path):
    """Probing an exhausted scope writes no ledger record, and 2e4 denied
    charges leave traced memory where it was."""
    acct = Accountant(ledger_path=str(tmp_path / "l.txt"))
    acct.create_scope("main", PURE_EPS, 0.0)
    for mechanism in ("laplace", "noisy_histogram"):
        with pytest.raises(BudgetExceededError):
            acct.charge("main", 1e-3, mechanism)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20_000):
            try:
                acct.charge("main", 1e-3 + 1e-7 * i, "laplace")
            except BudgetExceededError:
                pass
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert acct.ledger == ()
    acct.close()
    assert grown < 64 * 1024


@pytest.mark.parametrize("kind, budget", [(PURE_EPS, math.nan), (PURE_EPS, -1.0),
                                          ("zcdp-rho", 1.0), ("", 1.0)],
                         ids=["nan-budget", "negative-budget", "zcdp-kind", "empty-kind"])
def test_a_scope_needs_the_pure_kind_and_a_budget_of_at_least_zero(tmp_path, kind, budget):
    """A NaN budget would grant every charge, as `spent + x > nan` is false;
    every scope spends epsilon, so no other kind is accepted."""
    acct = Accountant()
    with pytest.raises(ContractViolation):
        acct.create_scope("s", kind, budget)
    with pytest.raises(UnknownScopeError):
        acct.scope("s")
    acct.close()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"budgets": [{"id": "s", "kind": kind, "budget": budget}]}))
    with pytest.raises(ContractViolation):
        build_accountant(ServiceConfig.from_file(str(path)))


@pytest.mark.parametrize("scope_id", ["a b", "", "tab\tid", "line\nbreak"])
def test_a_scope_id_the_ledger_cannot_read_back_is_refused(tmp_path, scope_id):
    """A ledger line carries the scope id as one run of non-whitespace, so
    an empty id or one with whitespace is refused before any charge, both by
    `create_scope` and by a config file."""
    ledger = tmp_path / "ledger.txt"
    acct = Accountant(ledger_path=str(ledger))
    with pytest.raises(ContractViolation, match="scope id"):
        acct.create_scope(scope_id, PURE_EPS, 1.0)
    with pytest.raises(UnknownScopeError):
        acct.scope(scope_id)
    acct.close()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"budgets": [{"id": scope_id, "budget": 1.0}],
                                "ledger": str(ledger)}))
    with pytest.raises(ContractViolation, match="scope id"):
        ServiceConfig.from_file(str(path))
    with pytest.raises(ContractViolation, match="scope id"):
        build_accountant(ServiceConfig(budgets=[{"id": scope_id, "budget": 1.0}],
                                       ledger_path=str(ledger)))
    assert ledger.read_bytes() == b""


def test_a_refused_config_leaves_no_ledger_file_open(tmp_path):
    """`build_accountant` opens the ledger before it reads the scopes and the
    replay; a NaN budget and a malformed ledger line are refused with the
    file closed.  Run in a fresh interpreter that turns an unclosed file into
    an error."""
    (tmp_path / "bad.txt").write_text("junk\n")
    script = (
        "import gc, math\n"
        "from dpcore.errors import ContractViolation\n"
        "from dpcore.service import ServiceConfig, build_accountant\n"
        f"for budget, path in ((math.nan, {str(tmp_path / 'new.txt')!r}),\n"
        f"                     (1.0, {str(tmp_path / 'bad.txt')!r})):\n"
        "    try:\n"
        "        build_accountant(ServiceConfig(budgets=[{'id': 's', 'budget': budget}],\n"
        "                                       ledger_path=path))\n"
        "    except ContractViolation:\n"
        "        print('refused')\n"
        "gc.collect()\n")
    src = os.path.dirname(os.path.dirname(dpcore.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "refused\nrefused\n", proc.stderr
    assert "ResourceWarning" not in proc.stderr

def test_replay_leaves_an_intact_ledger_untouched(tmp_path):
    """Every command replays the shared ledger, the read-only ones too: a
    file that ends in a newline is only read, never rewritten."""
    path = tmp_path / "ledger.txt"
    live = Accountant(ledger_path=str(path))
    live.create_scope("main", PURE_EPS, 10.0)
    live.charge("main", 0.25, "laplace")
    live.close()
    before, mtime = path.read_bytes(), path.stat().st_mtime_ns
    time.sleep(0.01)
    config = ServiceConfig(budgets=[{"id": "main", "budget": 10.0}], ledger_path=str(path))
    build_accountant(config).close()
    assert path.read_bytes() == before and path.stat().st_mtime_ns == mtime


def test_replay_waits_for_a_writer_and_keeps_its_line(tmp_path):
    """A line half-written by a live writer is not a torn tail: replay takes
    the writers' lock, so it reads the file only once the line is whole."""
    path = tmp_path / "ledger.txt"
    live = Accountant(ledger_path=str(path))
    live.create_scope("main", PURE_EPS, 10.0)
    line = live.charge("main", 0.25, "laplace").to_line()
    live.close()
    config = ServiceConfig(budgets=[{"id": "main", "budget": 10.0}], ledger_path=str(path))
    replayed = []
    with open(path, "a", encoding="utf-8") as writer:
        fcntl.flock(writer, fcntl.LOCK_EX)
        writer.write(line.replace("seq=1", "seq=2")[:20])
        writer.flush()
        reader = threading.Thread(target=lambda: replayed.append(build_accountant(config)))
        reader.start()
        reader.join(0.2)
        assert reader.is_alive()
        writer.write(line.replace("seq=1", "seq=2")[20:] + "\n")
        writer.flush()
        fcntl.flock(writer, fcntl.LOCK_UN)
    reader.join(10)
    assert replayed[0].spent("main") == 0.5
    assert replayed[0].charge("main", 1.0, "laplace").seq == 3
    replayed[0].close()
    assert len(path.read_text().splitlines()) == 3


def test_replay_ledger_skips_a_removed_scope(tmp_path):
    """Records of a scope the config no longer names spend nothing, but
    their seq still counts."""
    path = tmp_path / "ledger.txt"
    live = Accountant(ledger_path=str(path))
    live.create_scope("main", PURE_EPS, 10.0)
    live.create_scope("gone", PURE_EPS, 10.0)
    live.charge("main", 0.25, "laplace")
    live.charge("gone", 0.5, "laplace")
    live.close()
    restored = build_accountant(
        ServiceConfig(budgets=[{"id": "main", "budget": 10.0}], ledger_path=str(path)))
    assert restored.spent("main") == 0.25
    with pytest.raises(UnknownScopeError):
        restored.spent("gone")
    assert restored.charge("main", 1.0, "laplace").seq == 3
    restored.close()


def test_replay_of_a_long_ledger_is_bit_exact_and_refuses_a_bad_line(tmp_path):
    path = tmp_path / "ledger.txt"
    live = Accountant(ledger_path=str(path))
    live.create_scope("a", PURE_EPS, math.inf)
    live.create_scope("b", PURE_EPS, math.inf)
    for i in range(2000):
        live.charge("ab"[i % 3 == 0], 1e-3 + 1e-7 * i + (i % 7) / 3, "laplace")
    written = live.ledger
    live.close()
    config = ServiceConfig(budgets=[{"id": "a", "budget": math.inf},
                                    {"id": "b", "budget": math.inf}], ledger_path=str(path))
    restored = build_accountant(config)
    totals = replay_spent(list(written))
    assert restored.spent("a") == totals["a"] and restored.spent("b") == totals["b"]
    assert restored.ledger == written
    restored.close()
    # Skipping a line it cannot read would under-count the spend.
    lines = path.read_text().splitlines(keepends=True)
    line = lines[1000]
    for bad in (line.replace("kind=", "knd="), line.replace("amount=", "amount=-"),
                re.sub(r"amount=\S+", "amount=nan", line), line.replace("\n", " x=1\n"), "\n"):
        path.write_text("".join(lines[:1000] + [bad] + lines[1001:]))
        with pytest.raises(ContractViolation):
            build_accountant(config)


# -- the replay checkpoint ---------------------------------------------------------

def _config(path, scopes=("a", "b")) -> ServiceConfig:
    return ServiceConfig(budgets=[{"id": sid, "budget": math.inf} for sid in scopes],
                         ledger_path=str(path))


def _charge_mix(path, n: int, start: int = 0) -> None:
    """`n` charges of uneven amounts over scopes a, b and c, appended by an
    accountant that replays nothing, so they write no checkpoint."""
    acct = Accountant(ledger_path=str(path))
    for sid in "abc":
        acct.create_scope(sid, PURE_EPS, math.inf)
    for i in range(start, start + n):
        acct.charge("abc"[i % 3], 1e-3 + 1e-7 * i + (i % 7) / 3, "laplace")
    acct.close()


def _cold(path, scopes=("a", "b")):
    """(spent per scope, seq) of a cold `build_accountant`, or its refusal."""
    try:
        acct = build_accountant(_config(path, scopes))
    except ContractViolation as exc:
        return f"refused: {exc}"
    try:
        return {sid: acct.spent(sid) for sid in scopes}, acct._seq
    finally:
        acct.close()


def _full(path, scopes=("a", "b")):
    """(spent per scope, seq) of the ledger's whole lines, summed by `replay_spent`."""
    lines = path.read_bytes().decode("utf-8").split("\n")[:-1]
    totals = replay_spent([PrivacyCharge.from_line(line) for line in lines])
    return {sid: totals.get(sid, 0.0) for sid in scopes}, len(lines)


def _assert_checkpoint_is_true(path) -> None:
    """The checkpoint on disk, if any, holds the offset of a line end, the
    SHA-256 of the bytes before it, and their sums and highest seq."""
    ckpt = pathlib.Path(f"{path}.ckpt")
    if ckpt.exists():
        state = json.loads(ckpt.read_text())
        prefix = path.read_bytes()[:state["offset"]]
        assert prefix.endswith(b"\n") and hashlib.sha256(prefix).hexdigest() == state["sha256"]
        lines = prefix.decode("utf-8").splitlines()
        totals = replay_spent([PrivacyCharge.from_line(line) for line in lines])
        assert state["spent"] == {sid: repr(total) for sid, total in totals.items()}
        assert state["seq"] == max(PrivacyCharge.from_line(line).seq for line in lines)


def _replays_alike(path, scopes=("a", "b")):
    """A cold start on the ledger and its checkpoint gives the spent and seq,
    or the refusal, of a cold start on a copy of the ledger without one."""
    copy = path.with_name("copy.txt")
    pathlib.Path(f"{copy}.ckpt").unlink(missing_ok=True)
    copy.write_bytes(path.read_bytes())
    expected = _cold(copy, scopes)
    assert _cold(path, scopes) == expected
    return expected


def test_a_verified_checkpoint_is_used_and_replays_bit_exact(tmp_path):
    """`replay_ledger` writes `<ledger>.ckpt` with the sums of every scope id;
    a cold start takes them and parses only the records past the offset,
    with a full replay's spent and seq, bit for bit."""
    path, ckpt = tmp_path / "ledger.txt", tmp_path / "ledger.txt.ckpt"
    _charge_mix(path, 1500)
    assert not ckpt.exists()  # `charge` writes no checkpoint
    assert _cold(path) == _full(path)
    state = json.loads(ckpt.read_text())
    assert state["offset"] == path.stat().st_size and state["seq"] == 1500
    assert sorted(state["spent"]) == ["a", "b", "c"]  # c is not configured
    assert state["spent"]["c"] == repr(_full(path, "c")[0]["c"])
    before, mtime = ckpt.read_bytes(), ckpt.stat().st_mtime_ns
    assert _cold(path) == _full(path)  # no new records: the checkpoint stays
    assert ckpt.read_bytes() == before and ckpt.stat().st_mtime_ns == mtime
    _charge_mix(path, 700, start=1500)
    assert _replays_alike(path) == _full(path)
    assert json.loads(ckpt.read_text())["seq"] == 2200
    # The stored sums are what a cold start begins from: changed ones show through.
    ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()), "spent": {"a": "0.5"}}))
    assert _cold(path) == ({"a": 0.5, "b": 0.0}, 2200)
    ckpt.unlink()
    assert _cold(path) == _full(path)


def test_a_checkpoint_carries_the_sha256_of_the_ledger_bytes_it_covers(tmp_path):
    """The digest is a plain SHA-256 of the ledger's first `offset` bytes, so
    a checkpoint written with any SHA-256 implementation verifies."""
    from cryptography.hazmat.primitives import hashes

    path, ckpt = tmp_path / "ledger.txt", tmp_path / "ledger.txt.ckpt"
    _charge_mix(path, 300)
    _cold(path)
    _charge_mix(path, 40, start=300)
    _cold(path)  # the running hash, carried on from the first checkpoint
    state = json.loads(ckpt.read_text())
    prefix = path.read_bytes()[:state["offset"]]
    assert state["seq"] == 340 and state["sha256"] == hashlib.sha256(prefix).hexdigest()
    other = hashes.Hash(hashes.SHA256())
    other.update(prefix)
    assert other.finalize().hex() == state["sha256"]


def test_a_checkpoint_digested_by_hashlib_is_resumed_from(tmp_path):
    """A checkpoint written before the digest came from `cryptography` holds
    `hashlib`'s SHA-256 of the prefix; a cold start still takes it, so its
    stored sum, not the ledger's, is what `spent` reads."""
    path, ckpt = tmp_path / "ledger.txt", tmp_path / "ledger.txt.ckpt"
    _charge_mix(path, 200)
    prefix = path.read_bytes()
    ckpt.write_text(json.dumps({"offset": len(prefix), "seq": 200,
                                "spent": {"a": "0.5", "b": "1.25"},
                                "sha256": hashlib.sha256(prefix).hexdigest()}))
    assert _full(path)[0] != {"a": 0.5, "b": 1.25}
    assert _cold(path) == ({"a": 0.5, "b": 1.25}, 200)


def _prefix_byte(path, ckpt):
    """One byte of an amount in the covered prefix edited in place."""
    data = bytearray(path.read_bytes())
    data[data.index(b"amount=0.3") + 9] = ord("4")
    path.write_bytes(bytes(data))


def _prefix_malformed(path, ckpt):
    """A covered line made unreadable, with the ledger's length kept."""
    path.write_bytes(path.read_bytes().replace(b"kind=", b"kinD=", 1))


def _truncated_at_a_line(path, ckpt):
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:250]))


def _truncated_mid_line(path, ckpt):
    path.write_bytes(path.read_bytes()[:json.loads(ckpt.read_text())["offset"] - 5])


def _torn_tail(path, ckpt):
    with open(path, "ab") as fh:
        fh.write(b"seq=401 scope=a kind=pure-eps amo")


def _other_ledgers_checkpoint(path, ckpt):
    other = path.with_name("other.txt")
    _charge_mix(other, 300, start=1)
    _cold(other)
    ckpt.write_bytes(pathlib.Path(f"{other}.ckpt").read_bytes())


def _junk(text):
    def edit(path, ckpt):
        ckpt.write_bytes(text)
    return edit


def _field(**fields):
    def edit(path, ckpt):
        ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()), **fields}))
    return edit


@pytest.mark.parametrize("tamper, scopes, refused", [
    (_prefix_byte, "ab", False),
    (_prefix_malformed, "ab", True),
    (_truncated_at_a_line, "ab", False),
    (_truncated_mid_line, "ab", False),
    (_torn_tail, "ab", False),
    (_other_ledgers_checkpoint, "ab", False),
    (lambda path, ckpt: None, "abc", False),  # a scope configured after the checkpoint
    (_junk(b""), "ab", False), (_junk(b"{"), "ab", False), (_junk(b"[]"), "ab", False),
    (_junk(b"null"), "ab", False), (_junk(b"\xff\xfe"), "ab", False),
    (_junk(b'{"offset": 1}'), "ab", False),
    (_field(offset="100"), "ab", False), (_field(offset=100.0), "ab", False),
    (_field(offset=-1), "ab", False), (_field(offset=0), "ab", False),
    (_field(offset=10 ** 9), "ab", False), (_field(offset=101), "ab", False),
    (_field(offset=True), "ab", False), (_field(seq=1.5), "ab", False),
    (_field(seq="300"), "ab", False), (_field(spent=["a"]), "ab", False),
    (_field(spent={"a": "nan"}), "ab", False), (_field(spent={"a": "-1.0"}), "ab", False),
    (_field(spent={"a": "abc"}), "ab", False), (_field(sha256="zz"), "ab", False),
    (_field(sha256="00" * 32), "ab", False), (_field(sha256=None), "ab", False),
])
def test_a_checkpoint_that_does_not_verify_replays_from_byte_0(tmp_path, tamper, scopes,
                                                                 refused):
    """Whatever was done to the ledger or its checkpoint after the checkpoint
    was written, a cold start gives what it gives without the checkpoint: the
    same spent and seq, or the same refusal of a malformed line."""
    path, ckpt = tmp_path / "ledger.txt", tmp_path / "ledger.txt.ckpt"
    _charge_mix(path, 300)
    stale = _cold(path)
    _charge_mix(path, 100, start=300)
    untouched = _full(path)
    tamper(path, ckpt)
    got = _replays_alike(path, tuple(scopes))
    assert got == ("refused: malformed ledger line" if refused else _full(path, tuple(scopes)))
    if tamper is _prefix_byte:  # the stale sums would have hidden the edit
        assert got[0]["b"] != untouched[0]["b"] and stale[1] == 300


def test_a_checkpoint_that_cannot_be_written_is_skipped(tmp_path):
    """The checkpoint is a cache: when its temporary file cannot be made the
    replay still succeeds, and the next cold start replays in full."""
    path = tmp_path / "ledger.txt"
    _charge_mix(path, 50)
    (tmp_path / "ledger.txt.ckpt.tmp").mkdir()
    assert _cold(path) == _full(path)
    assert not (tmp_path / "ledger.txt.ckpt").exists()
    _charge_mix(path, 5, start=50)
    assert _cold(path) == _full(path)


def test_a_writer_killed_before_the_rename_leaves_the_last_checkpoint(tmp_path):
    """A process killed between writing the temporary checkpoint and
    `os.replace` leaves the previous checkpoint whole; the next replay
    reuses the temporary name and replaces both."""
    path, ckpt = tmp_path / "ledger.txt", tmp_path / "ledger.txt.ckpt"
    _charge_mix(path, 200)
    _cold(path)
    before = ckpt.read_bytes()
    _charge_mix(path, 100, start=200)
    script = (
        "import os, signal\n"
        "from dpcore.service import ServiceConfig, build_accountant\n"
        "os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
        f"build_accountant(ServiceConfig(budgets=[{{'id': 'a', 'budget': 1e9}}],\n"
        f"                               ledger_path={str(path)!r}))\n")
    src = os.path.dirname(os.path.dirname(dpcore.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert ckpt.read_bytes() == before
    assert json.loads((tmp_path / "ledger.txt.ckpt.tmp").read_text())["seq"] == 300
    assert _replays_alike(path) == _full(path)
    assert not (tmp_path / "ledger.txt.ckpt.tmp").exists()
    assert json.loads(ckpt.read_text())["seq"] == 300


def _append_in_a_loop(path: str, n: int, started) -> None:
    acct = Accountant(ledger_path=path)
    acct.create_scope("a", PURE_EPS, math.inf)
    acct.create_scope("b", PURE_EPS, math.inf)
    started.set()
    for i in range(n):
        acct.charge("ab"[i % 2], (i % 5) / 3 + 1e-9 * i, "laplace")
    acct.close()


def test_cold_starts_from_a_checkpoint_while_another_process_appends(tmp_path):
    """Each cold start, checkpoint or not, applies a whole-record prefix of
    the ledger with that prefix's left-to-right sums and highest seq, and
    the last one agrees with a full replay."""
    path = tmp_path / "ledger.txt"
    _charge_mix(path, 500)
    ctx = multiprocessing.get_context("spawn")
    started = ctx.Event()
    proc = ctx.Process(target=_append_in_a_loop, args=(str(path), 3000, started))
    proc.start()
    assert started.wait(60)
    starts = 0
    while proc.is_alive() or starts < 3:
        acct = build_accountant(_config(path))
        applied = list(acct.ledger)
        totals = replay_spent(applied)
        assert acct.spent("a") == totals["a"] and acct.spent("b") == totals["b"]
        assert acct._seq == len(applied) == applied[-1].seq
        acct.close()
        _assert_checkpoint_is_true(path)
        starts += 1
    proc.join(60)
    assert proc.exitcode == 0 and starts >= 3
    assert _replays_alike(path) == _full(path)
    assert json.loads((tmp_path / "ledger.txt.ckpt").read_text())["seq"] == 3500


_OPS = st.lists(st.tuples(
    st.sampled_from(["charge", "append", "replay", "writer replay", "cold", "delete"]),
    st.sampled_from("abc"), st.integers(0, 30)), max_size=30)


@settings(max_examples=60, deadline=None)
@given(_OPS)
@example([("charge", "a", 3), ("append", "b", 2), ("replay", "a", 0), ("cold", "a", 0),
          ("append", "c", 5), ("delete", "a", 0), ("writer replay", "a", 0), ("cold", "a", 0)])
def test_checkpoint_interleavings_match_a_full_replay(ops):
    """Charges, replays, cold starts and checkpoint deletions on one
    accountant, interleaved with a second writer's appends and replays: the
    accountant always holds the sums of the records it applied, and a cold
    start always holds those of the whole ledger."""
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "ledger.txt"
        acct = build_accountant(_config(path))
        writer = Accountant(ledger_path=str(path))
        for sid in "abc":
            writer.create_scope(sid, PURE_EPS, math.inf)
        try:
            for op, sid, k in ops:
                amount = k / 7 + 1e-9 * k
                if op == "charge":
                    acct.charge("ab"[k % 2], amount, "laplace")
                elif op == "append":
                    writer.charge(sid, amount, "laplace")
                elif op == "replay":
                    acct.replay_ledger()
                elif op == "writer replay":
                    writer.replay_ledger()
                elif op == "cold":
                    acct.close()
                    acct = build_accountant(_config(path))
                else:
                    pathlib.Path(f"{path}.ckpt").unlink(missing_ok=True)
                applied = list(acct.ledger)
                totals = replay_spent(applied)
                assert [acct.spent(s) for s in "ab"] == [totals.get(s, 0.0) for s in "ab"]
                assert acct._seq == max((c.seq for c in applied), default=0)
                _assert_checkpoint_is_true(path)
            acct.replay_ledger()
            assert ({s: acct.spent(s) for s in "ab"}, acct._seq) == _full(path)
            assert _replays_alike(path) == _full(path)
        finally:
            acct.close()
            writer.close()


def _charge_until_denied(path: str, barrier) -> None:
    acct = build_accountant(ServiceConfig(budgets=[{"id": "main", "budget": 1.0}],
                                          ledger_path=path))
    barrier.wait(timeout=60)
    try:
        for _ in range(16):
            acct.charge("main", 0.125, "laplace")
    except BudgetExceededError:
        pass
    acct.close()


def test_two_processes_cannot_overspend_together(tmp_path):
    """Each process replays, then both charge: the check and the append
    see what the other appended, so the ledger stays within budget and
    every seq is handed out once."""
    path = str(tmp_path / "ledger.txt")
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(2)
    procs = [ctx.Process(target=_charge_until_denied, args=(path, barrier)) for _ in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(120)
        assert not p.is_alive() and p.exitcode == 0
    charges = [PrivacyCharge.from_line(line) for line in open(path).read().splitlines()]
    assert sum(c.amount for c in charges) <= 1.0
    assert len(charges) == 8
    assert len({c.seq for c in charges}) == len(charges)


@pytest.mark.parametrize("named", [True, False], ids=["named", "unnamed"])
def test_a_forked_child_cannot_charge(tmp_path, named):
    """A forked child shares the ledger's open file and its offset, and the
    parent's `flock` does not exclude it: its charge is refused before it
    touches the file, and the parent goes on charging."""
    path = tmp_path / "ledger.txt"
    acct = Accountant(ledger_path=str(path) if named else None)
    acct.create_scope("main", PURE_EPS, 10.0)
    acct.charge("main", 0.5, "laplace")
    before = [c.to_line() for c in acct.ledger]
    raw = path.read_bytes() if named else None
    pid = os.fork()
    if pid == 0:  # the child reports through its exit code only
        code = 3
        try:
            acct.charge("main", 0.5, "laplace")
            code = 1
        except ContractViolation:
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    if named:
        assert path.read_bytes() == raw
    assert [c.to_line() for c in acct.ledger] == before
    acct.charge("main", 0.5, "laplace")
    assert acct.spent("main") == 1.0 and len(acct.ledger) == 2
    acct.close()


def test_only_a_named_ledger_keeps_a_running_hash(tmp_path):
    """The SHA-256 of the ledger is read only to write a checkpoint, and only
    a named ledger has one."""
    for ledger_path in (None, str(tmp_path / "ledger.txt")):
        acct = Accountant(ledger_path=ledger_path)
        acct.create_scope("main", PURE_EPS, 10.0)
        acct.charge("main", 0.5, "laplace")
        acct.replay_ledger()
        assert (acct._hash is None) == (ledger_path is None)
        acct.close()


def test_budget_exceeded_is_atomic_and_uniform(tmp_path):
    acct = Accountant(ledger_path=str(tmp_path / "l.txt"))
    acct.create_scope("s", PURE_EPS, 1.0)
    h = acct.scope("s")
    h.charge(0.9, "laplace")
    with pytest.raises(BudgetExceededError) as exc:
        h.charge(0.2, "laplace")
    assert str(exc.value) == BUDGET_EXCEEDED_MESSAGE  # no amounts leaked
    assert acct.spent("s") == 0.9
    assert len(acct.ledger) == 1  # denied charge never hits the ledger
    acct.close()


def test_unknown_scope_and_duplicate_scope(accountant):
    with pytest.raises(UnknownScopeError):
        accountant.scope("ghost")
    with pytest.raises(ContractViolation):
        accountant.create_scope("main", PURE_EPS, 1.0)


def test_negative_charge_rejected(scope):
    with pytest.raises(ParameterError):
        scope.charge(-1.0, "laplace")


def test_nan_charge_rejected(accountant, scope):
    with pytest.raises(ParameterError):
        scope.charge(float("nan"), "laplace")
    assert accountant.spent("main") == 0.0 and accountant.ledger == ()


def test_concurrent_charges_conserve_budget(tmp_path):
    acct = Accountant(ledger_path=str(tmp_path / "l.txt"))
    acct.create_scope("s", PURE_EPS, 100.0)
    h = acct.scope("s")
    denied = []

    def worker():
        for _ in range(50):
            try:
                h.charge(0.125, "laplace")
            except BudgetExceededError:
                denied.append(1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    granted = len(acct.ledger)
    assert granted + len(denied) == 400
    assert acct.spent("s") == pytest.approx(granted * 0.125)
    assert acct.spent("s") <= 100.0 + 1e-9
    assert replay_spent(list(acct.ledger))["s"] == acct.spent("s")
    acct.close()


# -- linear query epsilon -----------------------------------------------------------

@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_linear_query_epsilon_matches_bruteforce(nr, nc, data):
    Q = np.array([[data.draw(st.integers(-5, 5)) for _ in range(nc)]
                  for _ in range(nr)], dtype=float)
    alphas = np.array([data.draw(st.floats(0.1, 10.0)) for _ in range(nr)])
    assert linear_query_epsilon(Q, alphas) == pytest.approx(
        max_column_l1(Q, alphas), rel=1e-12)


def test_linear_query_epsilon_identity_case():
    # One counting query at Laplace scale 1/eps: total epsilon is eps.
    assert linear_query_epsilon([[1.0]], [2.0]) == 0.5
    # Two identical queries compose additively.
    assert linear_query_epsilon([[1.0], [1.0]], [1.0, 1.0]) == 2.0


def test_linear_query_epsilon_validation():
    with pytest.raises(ContractViolation):
        linear_query_epsilon([[1.0]], [1.0, 2.0])
    with pytest.raises(ParameterError):
        linear_query_epsilon([[1.0]], [0.0])


def test_verify_accounting_is_domination():
    Q, alphas = [[1.0, 0.0], [1.0, 1.0]], [1.0, 2.0]
    exact = linear_query_epsilon(Q, alphas)
    assert verify_accounting(exact, Q, alphas)
    assert verify_accounting(exact + 0.1, Q, alphas)
    assert not verify_accounting(exact - 1e-9, Q, alphas)


# -- interpretive bounds --------------------------------------------------------------

def test_power_bound_reference_points():
    # A level-0.05 membership test against an eps = 1 release has true
    # positive rate at most ~13.6%; at eps = 0.5 just above 8%.
    assert power_bound(1.0) == pytest.approx(0.13591409, abs=1e-6)
    assert power_bound(0.5) == pytest.approx(0.08243606, abs=1e-6)
    assert power_bound(0.0) == 0.05
    assert power_bound(1.0, alpha=0.01) == pytest.approx(math.e * 0.01)


def test_group_privacy_scales_linearly(accountant, scope):
    """k group members cost k * eps under pure DP: additivity again."""
    for _ in range(4):
        scope.charge(0.5, "laplace")
    assert accountant.spent("main") == 2.0
