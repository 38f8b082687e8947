"""Privacy accountant: budget scopes and an append-only ledger.

The accountant is a serialization point: check-and-spend is a single
indivisible step under one lock, so concurrent charge storms can never
overspend, and replaying the ledger reproduces `spent` bit for bit.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import math
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetExceededError, ContractViolation, ParameterError, UnknownScopeError

#: The one scope kind: every mechanism spends epsilon, composed by addition.
PURE_EPS = "pure-eps"

#: Significance level used in the interpretive power-bound report.
DEFAULT_ALPHA = 0.05


class PrivacyCharge(NamedTuple):
    """One granted charge: exactly one per successful mechanism invocation."""

    seq: int
    scope_id: str
    kind: str  # PURE_EPS
    amount: float
    mechanism: str
    timestamp: float

    def to_line(self) -> str:
        return (
            f"seq={self.seq} scope={self.scope_id} kind={self.kind} "
            f"amount={self.amount!r} mechanism={self.mechanism} time={self.timestamp!r}"
        )

    @classmethod
    def from_line(cls, line: str) -> "PrivacyCharge":
        m = _LINE.fullmatch(line)
        if m is None:
            raise ContractViolation("malformed ledger line")
        seq, scope_id, kind, amount, mechanism, stamp = m.groups()
        return cls(int(seq), scope_id, kind, float(amount), mechanism, float(stamp))


_NUMBER = r"(inf|\d+(?:\.\d+)?(?:e[+-]\d+)?)"  # repr of a nonnegative float
#: A ledger line exactly as `to_line` writes it; `from_line` and replay both
#: read with it.  Any other line, a NaN or negative amount among them, is
#: refused: a record read wrong would miscount spend.
_LINE = re.compile(rf"^seq=(\d+) scope=(\S+) kind=(\S+) amount={_NUMBER} "
                   rf"mechanism=(\S+) time={_NUMBER}$", re.MULTILINE)


def _sha256():
    """A SHA-256 context from `cryptography`, whose OpenSSL a release loads for
    ChaCha20 anyway; imported only where a named ledger keeps a hash."""
    from cryptography.hazmat.primitives import hashes

    return hashes.Hash(hashes.SHA256())


def check_scope_id(scope_id) -> None:
    """Refuse a scope id that a ledger line cannot carry: `_LINE` reads it
    back as one run of non-whitespace."""
    if not (isinstance(scope_id, str) and re.fullmatch(r"\S+", scope_id)):
        raise ContractViolation("a scope id must be nonempty and hold no whitespace")


@dataclass
class BudgetScope:
    id: str
    kind: str
    budget: float
    sharing: str = "global"  # "global" or "per-group:<group id>"

    def __post_init__(self) -> None:
        check_scope_id(self.id)
        if self.kind != PURE_EPS:
            raise ContractViolation(f"unknown scope kind {self.kind!r}")
        if not self.budget >= 0:  # a NaN budget would grant every charge
            raise ContractViolation("budget must be nonnegative")


class ScopeHandle:
    """A scope-bound view of the accountant handed to mechanisms."""

    def __init__(self, accountant: "Accountant", scope_id: str) -> None:
        self._accountant = accountant
        self.scope_id = scope_id

    def charge(self, amount: float, mechanism: str) -> PrivacyCharge:
        return self._accountant.charge(self.scope_id, amount, mechanism)

    def remaining(self) -> float:
        return self._accountant.remaining(self.scope_id)


class Accountant:
    """Tracks cumulative privacy loss per scope with atomic check-and-spend.

    The ledger file is the only record of what was spent: `ledger_path`, which
    outlives the process and may be shared with other processes, or else an
    unnamed temporary file that goes on `close`.  `<ledger_path>.ckpt` caches a
    replay and is used only where its SHA-256 matches the ledger's bytes; only
    a named ledger keeps that running hash, `cryptography`'s, which loads its
    hash module but no cipher.  The ledger is open in the process that built
    the accountant, and only that process may use it: a forked child shares
    the open file's offset, and `flock` does not exclude it.
    The file is unbuffered: every granted charge is one `write` of its whole
    line, made before `charge` returns, so no mechanism result can be
    released ahead of its ledger record; a write that stores less raises and
    grants nothing, and a closed accountant grants nothing.
    """

    def __init__(self, ledger_path: str | None = None) -> None:
        self._scopes: dict[str, BudgetScope] = {}
        self._lock = threading.Lock()
        self._seq = 0
        self._ledger_file = (open(ledger_path, "a+b", buffering=0) if ledger_path
                             else tempfile.TemporaryFile("a+b", buffering=0))
        self._pid = os.getpid()  # the one process that may use `_ledger_file`
        self._ckpt = ledger_path and ledger_path + ".ckpt"
        self._offset = 0  # ledger bytes applied to `_totals` and `_hash`
        self._totals: dict[str, float] = {}  # left-to-right spend per scope id
        self._hash = _sha256() if ledger_path else None

    # -- scope management -----------------------------------------------

    def create_scope(
        self, scope_id: str, kind: str = PURE_EPS, budget: float = math.inf,
        sharing: str = "global",
    ) -> ScopeHandle:
        with self._lock:
            if scope_id in self._scopes:
                raise ContractViolation(f"scope {scope_id!r} already exists")
            self._scopes[scope_id] = BudgetScope(scope_id, kind, budget, sharing=sharing)
        return ScopeHandle(self, scope_id)

    def scope(self, scope_id: str) -> ScopeHandle:
        self._scope(scope_id)
        return ScopeHandle(self, scope_id)

    def _scope(self, scope_id: str) -> BudgetScope:
        try:
            return self._scopes[scope_id]
        except KeyError:
            raise UnknownScopeError(f"unknown scope: {scope_id}") from None

    # -- charging ---------------------------------------------------------

    def charge(self, scope_id: str, amount: float, mechanism: str) -> PrivacyCharge:
        """Atomically spend `amount` from the scope or deny without side
        effects.  Denial raises BudgetExceededError with a uniform message.
        The check and the write hold the ledger's `flock`, after applying
        what other processes appended, so processes cannot overspend together.
        The ledger is read only when its size is not `_offset`, or at
        `_offset` 0, where `_apply_appended` loads the checkpoint."""
        if not amount >= 0:
            raise ParameterError("charge amount must be nonnegative")
        amount = float(amount) + 0.0  # the repr replay reads: no -0.0, no numpy scalar
        self._check_process()
        fh = self._ledger_file
        fd = fh.fileno()  # a closed ledger raises here, before anything is spent
        with self._lock:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                # The seek to the end also places a temporary ledger's next line.
                if not self._offset or os.lseek(fd, 0, os.SEEK_END) != self._offset:
                    self._apply_appended(fh)
                scope = self._scope(scope_id)
                spent = self._totals.get(scope_id, 0.0) + amount
                if spent > scope.budget:
                    raise BudgetExceededError()
                record = PrivacyCharge(self._seq + 1, scope_id, scope.kind, amount,
                                       mechanism, time.time())
                line = (record.to_line() + "\n").encode()
                if fh.write(line) != len(line):  # the next catch-up cuts the part
                    raise OSError("a ledger line was written in part")
                self._offset += len(line)
                if self._hash:
                    self._hash.update(line)
                self._seq = record.seq
                self._totals[scope_id] = spent
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        return record

    def replay_ledger(self) -> None:
        """Apply the ledger file from the point this accountant has read up
        to.  Replay reads under the writers' exclusive `flock`, so a last
        line without its newline is a write that died half-way; it is cut
        off the file, and an intact file is left as it is.  A replay that read
        new records of a named ledger rewrites its checkpoint through a fixed
        temporary name, still under the `flock`, so a killed writer leaves
        the last one whole; the checkpoint is a cache, and a failed write is
        ignored."""
        self._check_process()
        fh = self._ledger_file
        with self._lock:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                if self._apply_appended(fh) and self._ckpt:
                    state = {"offset": self._offset, "seq": self._seq,
                             "spent": {sid: repr(total) for sid, total in self._totals.items()},
                             "sha256": self._hash.copy().finalize().hex()}
                    with contextlib.suppress(OSError):
                        with open(self._ckpt + ".tmp", "w", encoding="utf-8") as out:
                            json.dump(state, out)
                        os.replace(self._ckpt + ".tmp", self._ckpt)
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    def _apply_appended(self, fh) -> int:
        """One pass over the ledger lines past `_offset` (or past a verified
        checkpoint), in file order: the same left-to-right sums `charge` made,
        for every scope id, and the highest `seq`.  The file is read only when
        its size is not `_offset`: bytes before `_offset` end a line and never
        change.  The size is taken by seeking to the end, which costs less
        than `fstat` and leaves a temporary ledger, which has no O_APPEND,
        positioned for the next line.  Caller holds `_lock` and the file's
        `flock`."""
        if not self._offset and self._ckpt:
            self._load_checkpoint(fh)
        if fh.seek(0, os.SEEK_END) == self._offset:
            return 0
        fh.seek(self._offset)
        data = fh.read()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            fh.seek(self._offset + end)  # a temporary ledger has no O_APPEND
            fh.truncate()
        if not end:
            return 0
        text = data[:end].decode("utf-8")
        totals = dict(self._totals)
        seq = self._seq
        records = 0
        for m in _LINE.finditer(text):
            line_seq, sid, amount = m.group(1, 2, 4)
            totals[sid] = totals.get(sid, 0.0) + float(amount)
            seq = max(seq, int(line_seq))
            records += 1
        if records != text.count("\n"):
            raise ContractViolation("malformed ledger line")
        self._totals, self._seq = totals, seq
        self._offset += end
        if self._hash:
            self._hash.update(data[:end])
        return records

    def _load_checkpoint(self, fh) -> None:
        """Start from `<ledger>.ckpt` if it is well-formed, its `offset` ends a
        line of the ledger and the SHA-256 of the bytes before it matches."""
        try:
            with open(self._ckpt, "rb") as src:
                ckpt = json.load(src)
            offset, seq = ckpt["offset"], ckpt["seq"]
            totals = {sid: float(total) for sid, total in ckpt["spent"].items()}
            fh.seek(offset - 1)  # a checkpoint is written only past a whole record
            if not (type(offset) is type(seq) is int and fh.read(1) == b"\n"
                    and all(total >= 0 for total in totals.values())):
                return
            digest = _sha256()
            for chunk in _chunks(fh, offset):
                digest.update(chunk)
            if digest.copy().finalize() == bytes.fromhex(ckpt["sha256"]):
                self._offset, self._seq, self._totals, self._hash = offset, seq, totals, digest
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            pass  # an unreadable checkpoint is a miss: replay from byte 0

    def _check_process(self) -> None:
        if os.getpid() != self._pid:
            raise ContractViolation("a ledger is used only by the process that opened it")

    def remaining(self, scope_id: str) -> float:
        with self._lock:
            return self._scope(scope_id).budget - self._totals.get(scope_id, 0.0)

    def spent(self, scope_id: str) -> float:
        with self._lock:
            self._scope(scope_id)
            return self._totals.get(scope_id, 0.0)

    @property
    def ledger(self) -> tuple[PrivacyCharge, ...]:
        """The records this accountant has applied, read back from its ledger file."""
        self._check_process()
        with self._lock:
            text = b"".join(_chunks(self._ledger_file, self._offset)).decode("utf-8")
        return tuple(map(PrivacyCharge.from_line, text.splitlines()))

    def close(self) -> None:
        self._ledger_file.close()


def _chunks(fh, end: int):
    """The file's first `end` bytes, in reads of at most 64 KiB; an unbuffered
    `read` may return fewer bytes than it was asked for."""
    fh.seek(0)
    start = 0
    while start < end:
        chunk = fh.read(min(1 << 16, end - start))
        if not chunk:
            raise ContractViolation("the ledger ends before its applied offset")
        start += len(chunk)
        yield chunk


def power_bound(epsilon_spent: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Interpretive bound e^eps * alpha on any level-alpha membership test's
    true positive rate.  Vacuous (inf) once the spend is astronomically
    large, rather than overflowing."""
    try:
        return math.exp(epsilon_spent) * alpha
    except OverflowError:
        return math.inf

