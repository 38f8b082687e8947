"""Cryptographically secure randomness and hardened samplers.

The generator is a ChaCha20 keystream (a recognized cryptographic stream
construction; Mersenne-Twister-class generators are deliberately absent).
Sources are keyed only from operating-system entropy or by derivation from
another source.  There is no integer-seed constructor, no seed flag and no
way to persist a seed: that is the API contract, not an omission.

`sample_laplace` transforms full-precision float uniforms and, like
`uniform_full` and `signs`, takes a count and returns an array of that many
draws; `sample_discrete_laplace` draws one integer and is exact.
A full-precision uniform takes one 64-bit keystream word (and a fresh word
for one value in 4096), and a sign takes one keystream bit, so a Laplace
draw reads about 8.13 keystream bytes.

All samplers draw exclusively from the RandomSource they are handed.  So
does the audit harness, down to the Binomial thinning of its hypothesis
test (`audit.gof.binomial_draws`, by inverse CDF on `uniform_full`): every
audit draw comes from ChaCha20, and no module of dpcore loads numpy's own
generators.
"""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

__all__ = [
    "RandomSource",
    "derive_source",
    "sample_laplace",
    "sample_discrete_laplace",
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
        key = os.urandom(_KEY_BYTES) if _key is None else _key
        cipher = Cipher(algorithms.ChaCha20(key, _ZERO_NONCE), mode=None)
        self._encryptor = cipher.encryptor()

    @classmethod
    def from_os_entropy(cls) -> "RandomSource":
        return cls()

    # -- raw stream ---------------------------------------------------------

    def bytes(self, n: int) -> bytearray:
        out = bytearray(n)
        self._encryptor.update_into(out, out)  # keystream XOR zeros, in place
        return out

    def u64(self, n: int) -> np.ndarray:
        """n independent uniform 64-bit words."""
        return np.frombuffer(self.bytes(8 * n), dtype=np.uint64)

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

    def uniform_full(self, n: int) -> np.ndarray:
        """n uniforms over representable floats in (0, 1), not just a 2^-53
        grid.

        Each value is (2^52 + m) * 2^(-53-k): the significand m is bits
        63..12 of one word and k ~ Geometric(1/2) is the number of trailing
        zeros of bits 11..0.  Only where those 12 bits are all zero
        (p = 2^-12) does k go on, over the trailing zeros of fresh words, an
        all-zero word adding 64.  So every dyadic range [2^-k-1, 2^-k) is
        reachable with the correct mass.  Each value stands for the interval
        up to the next one, so P[U < p] = p exactly for every float
        p >= 2^-1022; the all-ones word gives 1 - 2^-53.  This is the uniform
        behind the inverse-CDF samplers and `bernoulli_sample`.
        """
        words = self.u64(n)
        low = words.view(np.int64) & 0xFFF  # an intp index gathers fastest
        out = ((words >> np.uint64(12)) | np.uint64(1 << 52)).astype(np.float64)
        out *= _LOW12_SCALE[low]
        lanes = np.flatnonzero(low == 0)
        while lanes.size:
            words = self.u64(lanes.size)
            lowest = (words & (~words + np.uint64(1))).astype(np.float64)  # 2^zeros
            out[lanes] /= np.where(lowest == 0, 2.0 ** 64, lowest)  # exact
            lanes = lanes[lowest == 0]
        return out

    def signs(self, n: int) -> np.ndarray:
        """n independent +/-1 values, one keystream bit each: bit i of the
        stream, most significant bit of each byte first, is value i, and a
        set bit is +1."""
        bits = np.unpackbits(np.frombuffer(self.bytes((n + 7) // 8), np.uint8), count=n)
        s = bits * 2.0
        s -= 1.0
        return s


_LOW12 = np.arange(1 << 12) | 1 << 12
#: 2^(-53-k) for each 12-bit value, k its trailing zeros (12 for 0).
_LOW12_SCALE = 2.0 ** -53 / (_LOW12 & -_LOW12)
#: Laplace draws per block, so that each block's temporaries stay in cache.
_BLOCK = 1 << 13


def derive_source(parent: RandomSource) -> RandomSource:
    """Child stream keyed from the parent's output.

    Distinct derivations consume distinct key material, so the streams are
    distinct and statistically independent of the parent's future output.
    """
    return RandomSource(_key=parent.bytes(_KEY_BYTES))


# ---------------------------------------------------------------------------
# Samplers.  Every sampler takes its RandomSource explicitly and exposes its
# scale through the returned values' construction only; the epsilon-floor
# rule (eps/sensitivity >= 1e-3) is enforced one layer up, in mechanisms.
# ---------------------------------------------------------------------------

def sample_laplace(rng: RandomSource, scale: float, size: int) -> np.ndarray:
    """`size` Laplace(0, scale) draws: a random sign on an Exp(scale) magnitude.

    Equivalent to inverse-CDF sampling with a symmetric full-precision
    uniform, without the precision loss of forming 1 - 2|u|.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    out = np.empty(size)
    for start in range(0, size, _BLOCK):
        block = out[start:start + _BLOCK]
        signs = rng.signs(len(block))
        np.log(rng.uniform_full(len(block)), out=block)
        block *= signs  # exact, so the result is sign * (-scale * ln u)
        block *= -scale
    return out


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
