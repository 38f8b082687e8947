"""Test-only doubles: a scripted randomness source and a simulated clock.

This module is the gate: production modules never import it (the test suite
enforces that), so a scripted source cannot leak into a real release path.
Both doubles satisfy the same duck-typed protocols as their production
counterparts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


class ScriptedSource:
    """Randomness stand-in that replays scripted values.

    `uniforms` feeds uniform_full(); `bits` feeds randbits()/
    randbelow()/signs().  Sequences repeat when exhausted.

    The exact discrete Laplace sampler loops until its coins let it stop,
    so a cycle handed to it directly must allow that: bits=(0,) draws an
    exact 0 at every scale (see zero_noise_source), bits=(7,) never stops.
    A QueryService reads its root source only through derive_source, which
    keys a ChaCha20 stream with 32 script bytes, so any cycle works there.
    """

    def __init__(self, uniforms=(0.5,), bits=(0,)) -> None:
        self._uniforms = itertools.cycle(uniforms)
        self._bits = itertools.cycle(bits)

    def uniform_full(self, n=None):
        out = np.array([next(self._uniforms) for _ in range(n if n is not None else 1)])
        return out if n is not None else float(out[0])

    def randbits(self, k: int) -> int:
        return next(self._bits) % (1 << k)

    def randbelow(self, n: int) -> int:
        return next(self._bits) % n

    def signs(self, n=None):
        size = n if n is not None else 1
        s = np.array([1.0 if next(self._bits) % 2 == 0 else -1.0 for _ in range(size)])
        return s if n is not None else float(s[0])

    def bytes(self, n: int) -> bytes:
        return bytes(next(self._bits) & 0xFF for _ in range(n))


def zero_noise_source() -> ScriptedSource:
    """A source under which Laplace/exponential noise is exactly zero.

    uniform_full = 1.0 makes -scale*ln(u) = 0, and signs multiply zero
    magnitudes.  For the discrete Laplace, all-zero bits keep U = 0, stop
    the geometric at V = 0 and draw the positive sign: an exact 0.
    """
    return ScriptedSource(uniforms=(1.0,), bits=(0,))


@dataclass
class SimulatedClock:
    """Deterministic clock with an event trace.

    `now` advances only through `advance`/`sleep_until`; every sleep target
    is recorded so tests can compare full timing traces byte for byte.
    """

    time: float = 0.0
    trace: list = field(default_factory=list)

    def now(self) -> float:
        return self.time

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance backwards")
        self.time += dt

    def sleep_until(self, t: float) -> None:
        if t > self.time:
            self.time = t
        self.trace.append(("sleep_until", t))

    def mark(self, label: str) -> None:
        self.trace.append((label, self.time))

    def trace_bytes(self) -> bytes:
        return repr(self.trace).encode("utf-8")
