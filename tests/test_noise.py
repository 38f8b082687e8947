import inspect
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dpcore.audit.gof import two_sided_geometric_pmf
from dpcore.randomness import (
    RandomSource,
    derive_source,
    log_add,
    sample_discrete_laplace,
    sample_exponential,
    sample_laplace,
)
from dpcore.testing import ScriptedSource, zero_noise_source
from oracles import log_add_mp


# -- the random source itself -------------------------------------------------

def test_no_integer_seed_constructor():
    """The seeding API contract: OS entropy or derivation, nothing else."""
    sig = inspect.signature(RandomSource.__init__)
    public = [p for p in sig.parameters.values()
              if p.name != "self" and not p.name.startswith("_")]
    assert public == []
    assert not hasattr(RandomSource, "seed")
    assert not hasattr(RandomSource, "from_seed")
    sig = inspect.signature(RandomSource.from_os_entropy)
    assert list(sig.parameters) == []


def test_stream_is_nontrivial_and_sources_differ():
    a, b = RandomSource.from_os_entropy(), RandomSource.from_os_entropy()
    assert a.bytes(32) != b.bytes(32)
    assert a.bytes(32) != a.bytes(32)


def test_derive_source_forks_the_stream():
    parent = RandomSource.from_os_entropy()
    c1, c2 = derive_source(parent), derive_source(parent)
    assert c1.bytes(32) != c2.bytes(32)
    assert c1.bytes(32) != parent.bytes(32)


def test_uniform_full_reaches_small_dyadic_ranges(rng):
    u = rng.uniform_full(200_000)
    assert np.all(u > 0) and np.all(u < 1)
    # With 2e5 draws, values below 2^-10 appear ~195 times in expectation.
    assert np.sum(u < 2.0**-10) > 50
    # Full mantissa precision below 2^-32: such values are not on the
    # 2^-53 grid a naive uniform would produce.
    tiny = u[u < 2.0**-32]
    if tiny.size:
        assert np.any(tiny * 2.0**53 != np.round(tiny * 2.0**53))


def test_uniform_full_exponent_is_geometric(rng):
    u = rng.uniform_full(400_000)
    exps = -np.floor(np.log2(u))
    counts = [np.sum(exps == k) for k in range(1, 8)]
    n = len(u)
    expected = [n * 2.0**-k for k in range(1, 8)]
    chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    assert chi2 < 30  # 6 dof, far beyond any reasonable quantile


class _KeystreamScript(RandomSource):
    """A RandomSource whose keystream is the scripted bytes, in order."""

    def __init__(self, data: bytes) -> None:
        super().__init__()
        self.data = bytearray(data)

    def bytes(self, n):
        assert len(self.data) >= n, "script exhausted"
        out, self.data = self.data[:n], self.data[n:]
        return out


def _words(*words) -> bytes:
    return np.array(words, dtype=np.uint64).tobytes()


def test_uniform_full_takes_one_word_and_goes_on_past_twelve_zero_bits():
    """A value is (2^52 + m) * 2^(-53-k): m is bits 63..12 of its word and k
    the trailing zeros of bits 11..0.  Where those are all zero, k goes on
    over fresh words, one per pending value in value order, and an all-zero
    word adds 64."""
    m = 0x123456789ABCD
    mant = float((1 << 52) + m)
    src = _KeystreamScript(
        _words((m << 12) | 0b1000, (m << 12), (m << 12) | 0x800, m << 12)  # k = 3, .., 11, ..
        + _words(0, 1 << 5)       # lane 1: +64 and goes on; lane 3: 12 + 5
        + _words(0b10))           # lane 1: 12 + 64 + 1
    u = src.uniform_full(4)
    assert u.tolist() == [math.ldexp(mant, -53 - 3), math.ldexp(mant, -53 - 77),
                          math.ldexp(mant, -53 - 11), math.ldexp(mant, -53 - 17)]
    assert src.data == bytearray()
    one = _KeystreamScript(_words((m << 12) | 1))
    assert one.uniform_full() == math.ldexp(mant, -53)


def test_signs_take_one_bit_each_most_significant_first():
    src = _KeystreamScript(bytes([0b10110001, 0b01000000]))
    assert src.signs(10).tolist() == [1, -1, 1, 1, -1, -1, -1, 1, -1, 1]
    assert src.data == bytearray()
    assert _KeystreamScript(bytes([0x80])).signs() == 1.0


def test_sample_laplace_is_sign_times_exponential_of_one_word():
    m = 0xFEDCBA9876543
    src = _KeystreamScript(bytes([0b01000000]) + _words((m << 12) | 0b100, (m << 12) | 1))
    u = [math.ldexp((1 << 52) + m, -53 - k) for k in (2, 0)]
    assert sample_laplace(src, 2.5, size=2).tolist() == [-2.5 * math.log(u[0]) * -1,
                                                         -2.5 * math.log(u[1])]


@pytest.mark.parametrize("n", [1 << 13, 100_003, 1 << 20])
def test_sample_laplace_reads_about_eight_keystream_bytes_per_draw(n):
    read = []

    class Counting(RandomSource):
        def bytes(self, k):
            read.append(k)
            return super().bytes(k)

    x = sample_laplace(Counting(), 1.0, size=n)
    assert x.shape == (n,) and np.isfinite(x).all()
    assert 8.125 <= sum(read) / n <= 8.25


def test_uniform_full_exponent_is_geometric_to_k_20(rng):
    """k, where u is in [2^-k-1, 2^-k), against Geometric(1/2) for k = 0..20
    and one bin for k > 20, over 2^24 draws: k >= 12 exercises the fresh
    words."""
    counts = np.zeros(22)
    for _ in range(16):
        k = -np.frexp(rng.uniform_full(1 << 20))[1]
        counts += np.bincount(np.minimum(k, 21), minlength=22)
    n = counts.sum()
    expected = n * np.append(0.5 ** np.arange(1, 22), 0.5 ** 21)
    _, p = stats.chisquare(counts, expected)
    assert p > 1e-6


def test_randbelow_bounds_and_uniformity(rng):
    draws = [rng.randbelow(6) for _ in range(6000)]
    assert min(draws) == 0 and max(draws) == 5
    _, p = stats.chisquare(np.bincount(draws, minlength=6))
    assert p > 1e-6


def test_randbelow_draws_only_the_bits_it_needs():
    """randbelow(n) draws (n-1).bit_length() bits, so a power of two is
    never rejected and randbelow(1) draws nothing."""
    widths = []

    class Counting(RandomSource):
        def randbits(self, k):
            widths.append(k)
            return super().randbits(k)

    src = Counting()
    for n in (1, 2, 8, 2**52):
        assert all(0 <= src.randbelow(n) < n for _ in range(50))
    assert widths == [0] * 50 + [1] * 50 + [3] * 50 + [52] * 50


def test_randbelow_rejects_nonpositive(rng):
    with pytest.raises(ValueError):
        rng.randbelow(0)


# -- log-domain arithmetic ------------------------------------------------------

@given(st.floats(-700, 700), st.floats(-700, 700))
def test_log_add_matches_high_precision_oracle(x, y):
    assert log_add(x, y) == pytest.approx(log_add_mp(x, y), rel=1e-12)


@given(st.floats(-700, 700, allow_nan=False), st.floats(-700, 700),
       st.floats(-700, 700))
def test_log_add_is_commutative_and_monotone(x, y, z):
    assert log_add(x, y) == log_add(y, x)
    assert log_add(x, y) >= max(x, y)
    ab = log_add(log_add(x, y), z)
    ba = log_add(x, log_add(y, z))
    assert ab == pytest.approx(ba, rel=1e-13)


def test_log_add_identity_and_extremes():
    assert log_add(-math.inf, 5.0) == 5.0
    assert log_add(5.0, -math.inf) == 5.0
    assert log_add(-math.inf, -math.inf) == -math.inf
    assert math.isfinite(log_add(700.0, 700.0))
    assert log_add(-700.0, -700.0) == pytest.approx(-700.0 + math.log(2), rel=1e-15)
    # A 1400-order-of-magnitude gap: the small side must not be lost to
    # a linear-scale underflow, it is just negligible.
    assert log_add(700.0, -700.0) == 700.0


# -- scripted sources -----------------------------------------------------------

def test_scripted_source_is_deterministic():
    a = ScriptedSource(uniforms=(0.25, 0.75))
    b = ScriptedSource(uniforms=(0.25, 0.75))
    assert a.uniform_full(4).tolist() == b.uniform_full(4).tolist() == [0.25, 0.75, 0.25, 0.75]


def test_zero_noise_source_silences_laplace():
    assert sample_laplace(zero_noise_source(), scale=7.3) == 0.0
    assert sample_exponential(zero_noise_source(), scale=7.3) == 0.0
    for scale in (Fraction(1, 10), 1, 7.3, 1000):
        assert sample_discrete_laplace(zero_noise_source(), scale) == 0


# -- continuous samplers ---------------------------------------------------------

def test_laplace_moments_and_shape(rng):
    x = sample_laplace(rng, 2.0, size=400_000)
    assert abs(float(np.mean(x))) < 0.03
    assert float(np.var(x)) == pytest.approx(8.0, rel=0.05)
    # Kolmogorov-Smirnov against the target CDF.
    _, p = stats.kstest(x[:50_000], stats.laplace(scale=2.0).cdf)
    assert p > 1e-6


@pytest.mark.parametrize("scale", [0.01, 1.7, 1000.0])
def test_laplace_matches_scipy_laplace(rng, scale):
    """Kolmogorov-Smirnov over draws that span several blocks and a partial one."""
    x = sample_laplace(rng, scale, size=100_003)
    _, p = stats.kstest(x, stats.laplace(scale=scale).cdf)
    assert p > 1e-6


def test_exponential_moments(rng):
    x = sample_exponential(rng, 3.0, size=400_000)
    assert np.all(x >= 0)
    assert float(np.mean(x)) == pytest.approx(3.0, rel=0.02)
    _, p = stats.kstest(x[:50_000], stats.expon(scale=3.0).cdf)
    assert p > 1e-6


@pytest.mark.parametrize("sampler", [sample_laplace, sample_exponential,
                                     sample_discrete_laplace])
def test_samplers_reject_nonpositive_scale(sampler, rng):
    with pytest.raises(ValueError):
        sampler(rng, 0.0)
    with pytest.raises(ValueError):
        sampler(rng, -1.0)


# -- exact discrete laplace ------------------------------------------------------------

@pytest.mark.parametrize("scale", [Fraction(1), 1 / Fraction(0.7), 2 / Fraction(0.7)],
                         ids=["1", "1_over_0.7", "2_over_0.7"])
def test_discrete_laplace_pmf(rng, scale):
    """Python ints, chi-square-close to the two-sided geometric with
    alpha = exp(-1/scale) on the signed support -K..K plus one bin for both
    tails."""
    n = 20_000
    draws = [sample_discrete_laplace(rng, scale) for _ in range(n)]
    assert all(type(d) is int for d in draws)
    x = np.array(draws)
    k = int(3 * scale) + 1
    support = np.arange(-k, k + 1)
    expected = two_sided_geometric_pmf(math.exp(-1 / float(scale)), support) * n
    observed = np.array([np.sum(x == j) for j in support])
    _, p = stats.chisquare(np.append(observed, n - observed.sum()),
                           np.append(expected, n - expected.sum()))
    assert p > 1e-6


def test_discrete_laplace_draw_time_is_flat_in_scale(rng):
    """Scale 1000 is the widest the epsilon floor allows; the rejection loop
    runs a bounded expected number of times there too."""
    n = 500
    t0 = time.perf_counter()
    for _ in range(n):
        sample_discrete_laplace(rng, 1000)
    assert (time.perf_counter() - t0) / n < 1e-3


# -- throughput guard -------------------------------------------------------------

def test_bulk_laplace_sampling_is_fast(rng):
    t0 = time.perf_counter()
    sample_laplace(rng, 1.0, size=1_000_000)
    assert time.perf_counter() - t0 < 2.0
