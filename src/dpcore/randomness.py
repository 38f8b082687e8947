"""Cryptographically secure randomness and hardened samplers.

The generator is a ChaCha20 keystream (a recognized cryptographic stream
construction; Mersenne-Twister-class generators are deliberately absent).
Sources are keyed only from operating-system entropy or by derivation from
another source.  There is no integer-seed constructor, no seed flag and no
way to persist a seed: that is the API contract, not an omission.

The Laplace and exponential samplers transform full-precision float
uniforms; `sample_discrete_laplace` draws only integers and is exact.

All samplers draw exclusively from the RandomSource they are handed, so a
scripted stand-in (see dpcore.testing) makes them deterministic in tests.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

__all__ = [
    "RandomSource",
    "derive_source",
    "log_add",
    "sample_laplace",
    "sample_discrete_laplace",
    "sample_exponential",
]

_KEY_BYTES = 32
_ZERO_NONCE = bytes(16)


class RandomSource:
    """Opaque CSPRNG handle over a ChaCha20 keystream.

    Construct via :meth:`from_os_entropy` or :func:`derive_source` only.
    A source is confined to one execution context at a time; hand each
    parallel worker its own derived source.
    """

    __slots__ = ("_encryptor",)

    def __init__(self, *, _key: bytes | None = None) -> None:
        # No user-facing seed path: the only key material accepted is the
        # module-internal derivation hook; everything else is OS entropy.
        key = _key if _key is not None else os.urandom(_KEY_BYTES)
        cipher = Cipher(algorithms.ChaCha20(key, _ZERO_NONCE), mode=None)
        self._encryptor = cipher.encryptor()

    @classmethod
    def from_os_entropy(cls) -> "RandomSource":
        return cls()

    # -- raw stream ---------------------------------------------------------

    def bytes(self, n: int) -> bytes:
        out = self._encryptor.update(bytes(n))
        return out

    def u64(self, n: int) -> np.ndarray:
        """n independent uniform 64-bit words."""
        return np.frombuffer(self.bytes(8 * n), dtype=np.uint64).copy()

    def randbits(self, k: int) -> int:
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.bytes(nbytes), "big")
        return value >> (8 * nbytes - k)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError("randbelow requires n > 0")
        k = (n - 1).bit_length()
        while True:
            r = self.randbits(k)
            if r < n:
                return r

    # -- uniforms -----------------------------------------------------------

    def uniform(self, n: int | None = None):
        """Uniform float64 in (0, 1) at 2^-64 granularity near the top.

        Used for bulk work where the full dyadic-precision variant below is
        unnecessary.
        """
        m = self.u64(n if n is not None else 1)
        out = (m.astype(np.float64) + 0.5) * 2.0 ** -64
        return out if n is not None else float(out[0])

    def uniform_full(self, n: int | None = None):
        """Uniform over representable floats in (0, 1), not just a 2^-53 grid.

        The significand fills all 52 explicit mantissa bits and the exponent
        is geometric(1/2), so every dyadic range [2^-k-1, 2^-k) is reachable
        with the correct mass.  This is the uniform behind the inverse-CDF
        samplers.
        """
        size = n if n is not None else 1
        mant = (self.u64(size) >> np.uint64(12)) | np.uint64(1 << 52)
        shift = np.zeros(size, dtype=np.int64)
        pending = np.arange(size)
        while pending.size:
            words = self.u64(pending.size)
            zero = words == 0
            # ChaCha output word == 0 has probability 2^-64; just add 64
            # leading zeros and continue for those lanes.
            nonzero = pending[~zero]
            w = words[~zero]
            low = (w & (~w + np.uint64(1))).astype(np.float64)  # lowest set bit
            shift[nonzero] += np.frexp(low)[1] - 1  # its index = trailing zeros
            shift[pending[zero]] += 64
            pending = pending[zero]
        out = np.ldexp(mant.astype(np.float64), -53 - shift)
        return out if n is not None else float(out[0])

    def signs(self, n: int | None = None):
        """Independent +/-1 values."""
        size = n if n is not None else 1
        s = ((self.u64(size) & np.uint64(1)).astype(np.float64) * 2.0) - 1.0
        return s if n is not None else float(s[0])


def derive_source(parent: RandomSource) -> RandomSource:
    """Child stream keyed from the parent's output.

    Distinct derivations consume distinct key material, so the streams are
    distinct and statistically independent of the parent's future output.
    """
    return RandomSource(_key=parent.bytes(_KEY_BYTES))


# ---------------------------------------------------------------------------
# Log-domain arithmetic.
# ---------------------------------------------------------------------------

def log_add(x: float, y: float) -> float:
    """log(a + b) given x = log a and y = log b, without leaving log scale.

    -inf is a valid input (a = 0) and acts as the additive identity; finite
    inputs never overflow.
    """
    if x == -math.inf:
        return y
    if y == -math.inf:
        return x
    z, v = (x, y) if x >= y else (y, x)
    return z + math.log1p(math.exp(v - z))


# ---------------------------------------------------------------------------
# Samplers.  Every sampler takes its RandomSource explicitly and exposes its
# scale through the returned values' construction only; the epsilon-floor
# rule (eps/sensitivity >= 1e-3) is enforced one layer up, in mechanisms.
# ---------------------------------------------------------------------------

def sample_exponential(rng: RandomSource, scale: float, size: int | None = None):
    """Exp(scale) on [0, inf), via -scale * ln(U) on a full-precision uniform."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    u = rng.uniform_full(size if size is not None else 1)
    out = -scale * np.log(u)
    return out if size is not None else float(out[0])


def sample_laplace(rng: RandomSource, scale: float, size: int | None = None):
    """Laplace(0, scale): a random sign on an Exp(scale) magnitude.

    Equivalent to inverse-CDF sampling with a symmetric full-precision
    uniform, without the precision loss of forming 1 - 2|u|.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = size if size is not None else 1
    out = rng.signs(n) * (-scale * np.log(rng.uniform_full(n)))
    return out if size is not None else float(out[0])


def _bernoulli_exp(rng: RandomSource, num: int, den: int) -> bool:
    """True with probability exp(-num/den), 0 <= num <= den, exactly.

    The first k whose Bernoulli(num/(den*k)) coin is false is odd with
    probability exp(-num/den).  A coin counts from the top of [0, den*k), so
    an all-zero script draws false unless the coin is certain.
    """
    k = 1
    while num >= den * k or rng.randbelow(den * k) >= den * k - num:
        k += 1
    return k % 2 == 1


def sample_discrete_laplace(rng: RandomSource, scale) -> int:
    """Discrete Laplace: P(k) proportional to exp(-|k|/scale) on the integers.

    Canonne, Kamath and Steinke (NeurIPS 2020), Algorithm 2, on the exact
    rational scale t/s: U + t*V, with U uniform on [0, t) kept with
    probability exp(-U/t) and V geometric, is floor-divided by s and signed
    (-0 rejected).  Only integers are drawn, and the expected number of
    draws does not grow with the scale.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    t, s = scale.numerator, scale.denominator
    while True:
        u = rng.randbelow(t)
        if not _bernoulli_exp(rng, u, t):
            continue
        v = 0
        while _bernoulli_exp(rng, 1, 1):
            v += 1
        y = (u + t * v) // s
        negative = rng.randbits(1)
        if not (negative and y == 0):
            return -y if negative else y
