"""Counter-based stream reproducibility and distribution sanity."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from depthrisk import DomainError, RngStream, mix64
from depthrisk.rng import CHUNK, normal_rows, uniform_rows

# Pinned values; any change here is a breaking change to the
# reproducibility contract.  The uniforms are the first release's; the
# normals are those of the half-angle Box-Muller.
UNIFORMS_123_7 = [
    0.10398137582682854,
    0.9878583044780417,
    0.9929982076816014,
    0.5786930632312249,
]
NORMALS_123_7 = [
    2.1256365460178075,
    -0.13758698624145432,
    -0.0935746929696332,
    -0.07417437088508963,
]


class TestDeterminism:
    def test_same_args_same_stream(self):
        a = RngStream(42, 3).uniforms(100)
        b = RngStream(42, 3).uniforms(100)
        assert np.array_equal(a, b)

    def test_distinct_ids_distinct_streams(self):
        a = RngStream(42, 0).uniforms(100)
        b = RngStream(42, 1).uniforms(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_distinct_streams(self):
        a = RngStream(0, 5).uniforms(100)
        b = RngStream(1, 5).uniforms(100)
        assert not np.array_equal(a, b)

    def test_pinned_uniforms(self):
        got = RngStream(123, 7).uniforms(4)
        assert list(got) == UNIFORMS_123_7

    def test_pinned_normals(self):
        got = RngStream(123, 7).normals(4)
        assert list(got) == NORMALS_123_7

    def test_uniform_prefix_stability(self):
        long = RngStream(9, 9).uniforms(6)
        short = RngStream(9, 9).uniforms(4)
        assert np.array_equal(long[:4], short)

    def test_normal_prefix_stability(self):
        # 5 and 6 consume the same three Box-Muller pairs
        long = RngStream(9, 9).normals(6)
        short = RngStream(9, 9).normals(5)
        assert np.array_equal(long[:5], short)

    def test_zero_draws(self):
        s = RngStream(1)
        assert s.uniforms(0).shape == (0,)
        assert s.normals(0).shape == (0,)
        # a zero-length draw must not advance the stream
        assert np.array_equal(s.uniforms(3), RngStream(1).uniforms(3))

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            RngStream(1).uniforms(-1)
        for n in (-1, -3):
            with pytest.raises(DomainError):
                RngStream(1).normals(n)


def _raw_words(seed: int, stream_id: int, n: int) -> np.ndarray:
    return np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)).random_raw(n)


def _uniforms_v0(raw: np.ndarray) -> np.ndarray:
    """The first release's uniforms: an odd 53-bit mantissa times 2**-53."""
    mant = ((raw >> np.uint64(12)) << np.uint64(1)) | np.uint64(1)
    return mant.astype(np.float64) * 2.0**-53


def _half_angle(radius: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """radius * (cos 2 pi u2, sin 2 pi u2) by the tangent half-angle, whole
    arrays at once: t = tan(pi (u2 - 1/2)), cos = (t - 1)(t + 1) / (1 + t^2)
    and sin = -2t / (1 + t^2), in the kernel's order of operations."""
    t = np.tan((u2 - 0.5) * np.pi)
    s = radius / (t * t + 1.0)
    return (t - 1.0) * s * (t + 1.0), (s * t) * -2.0


def _stream_normals_ref(seed: int, stream_id: int, n: int) -> np.ndarray:
    """A stream's first n Box-Muller normals, unchunked: m radius uniforms,
    then m angle uniforms."""
    m = (n + 1) // 2
    u = _uniforms_v0(_raw_words(seed, stream_id, 2 * m))
    return np.concatenate(_half_angle(np.sqrt(-2.0 * np.log(u[:m])), u[m:]))[:n]


WORDS = st.integers(0, (1 << 64) - 1)
# empty, one, odd and just past a 2**18 batch
DRAW_COUNTS = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(1, 2000).map(lambda k: 2 * k + 1),
    st.integers(0, 9).map(lambda k: 2**18 + k),
)


class TestV0Bits:
    """The draws of the first release's stream layout, bit for bit: its
    uniforms, and the unchunked half-angle Box-Muller normals of them."""

    @given(seed=WORDS, stream_id=WORDS, n=DRAW_COUNTS)
    @settings(max_examples=40, deadline=None)
    def test_uniforms(self, seed, stream_id, n):
        got = RngStream(seed, stream_id).uniforms(n)
        want = _uniforms_v0(_raw_words(seed, stream_id, n))
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(seed=WORDS, stream_id=WORDS, n=DRAW_COUNTS)
    @settings(max_examples=40, deadline=None)
    def test_normals(self, seed, stream_id, n):
        got = RngStream(seed, stream_id).normals(n)
        want = _stream_normals_ref(seed, stream_id, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestRows:
    """Row r of a block draw is what ``streams[r]`` alone gives, bit for bit."""

    @given(seed=WORDS, ids=st.lists(WORDS, min_size=1, max_size=4),
           n=st.one_of(st.sampled_from([0, 1, 2]), st.integers(1, 300)),
           normal=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rows_are_single_stream_draws(self, seed, ids, n, normal):
        rows, single = (normal_rows, "normals") if normal else (uniform_rows, "uniforms")
        streams = [RngStream(seed, i) for i in ids]
        got = rows(streams, n)
        assert got.shape == (len(ids), n) and got.flags.c_contiguous
        for row, stream, i in zip(got, streams, ids):
            alone = RngStream(seed, i)
            want = getattr(alone, single)(n)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))
            # and the stream is left where the single draw leaves it
            assert stream.uniforms(1)[0] == alone.uniforms(1)[0]

    def test_no_streams(self):
        assert uniform_rows([], 5).shape == normal_rows([], 5).shape == (0, 5)


class TestInPlaceBoxMuller:
    """Box-Muller runs in place on the uniforms' buffer, CHUNK pairs at a
    time, with the bits of the unchunked reference on the first release's
    stream layout: counts of none, one and an odd number of normals, about
    one and two chunks of pairs, and one past a 2**18 batch."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [0, 1, 7, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 2, 2**18 + 1])
    def test_rows_are_first_release_stream_draws(self, k, n):
        got = normal_rows([RngStream(11, j) for j in range(k)], n)
        assert got.shape == (k, n) and got.flags.c_contiguous
        for j, row in enumerate(got):
            want = _stream_normals_ref(11, j, n)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))

    def test_working_set_is_the_buffer_and_one_scratch_row(self):
        # 2**19 normals: the 4 MiB uniforms buffer, which becomes the result,
        # and one CHUNK scratch row; a per-chunk temporary would add 128 KiB
        stream = RngStream(11)
        stream.normals(8)  # warm numpy's ufunc and Philox paths
        tracemalloc.start()
        try:
            stream.normals(2**19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**19 + 8 * CHUNK + 16 * 2**10


class TestHalfAngle:
    """The half-angle form against 40-digit arithmetic."""

    def test_angle_step_against_mpmath(self):
        # odd 53-bit uniforms (2k + 1) * 2**-53: 3,000 random mantissas k and
        # the extremes, at 0 and 1 and on either side of 1/2
        k = np.random.default_rng(2929).integers(0, 2**52, 3000, dtype=np.uint64)
        k = np.concatenate([k, np.array([0, 1, 2**51 - 1, 2**51, 2**52 - 1], dtype=np.uint64)])
        u = (2 * k + 1).astype(np.float64) * 2.0**-53
        cos, sin = _half_angle(np.ones_like(u), u)
        assert np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))
        with mpmath.workdps(40):
            for ui, c, s in zip(u.tolist(), cos.tolist(), sin.tolist()):
                angle = 2 * mpmath.pi * mpmath.mpf(ui)
                assert abs(c - mpmath.cos(angle)) <= 4 * 2.0**-53
                assert abs(s - mpmath.sin(angle)) <= 4 * 2.0**-53


class TestOpenInterval:
    def test_strictly_inside(self):
        u = RngStream(2024, 0).uniforms(200_000)
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)

    def test_odd_mantissa(self):
        # every value is an odd multiple of 2**-53, so 0 and 1 are unreachable
        u = RngStream(77, 1).uniforms(10_000)
        k = np.round(u * 2.0**53).astype(np.int64)
        assert np.all(k % 2 == 1)


class TestDistributions:
    def test_uniform_moments(self):
        u = RngStream(5, 0).uniforms(1_000_000)
        assert abs(u.mean() - 0.5) < 3.0 * np.sqrt(1.0 / 12.0 / 1e6)
        assert abs(u.var() - 1.0 / 12.0) < 5e-4

    def test_uniform_ks(self):
        u = RngStream(6, 0).uniforms(100_000)
        d = stats.kstest(u, "uniform").statistic
        assert d < 1.6276 / np.sqrt(100_000)

    def test_normal_moments(self):
        z = RngStream(7, 0).normals(1_000_000)
        assert abs(z.mean()) < 3.0 / np.sqrt(1e6)
        assert abs(z.var() - 1.0) < 3.0 * np.sqrt(2.0 / 1e6)
        # and the whole law, on the same million
        assert stats.kstest(z, stats.norm.cdf).pvalue > 0.01

    def test_normal_ks(self):
        z = RngStream(8, 0).normals(100_000)
        d = stats.kstest(z, "norm").statistic
        assert d < 1.6276 / np.sqrt(100_000)


class TestMix64:
    def test_pinned_values(self):
        assert mix64() == 11400714819323198485
        assert mix64(1, 2, 3) == 12174095428247697372

    def test_order_sensitive(self):
        assert mix64(3, 2, 1) == 12814754319017812224
        assert mix64(1, 2, 3) != mix64(3, 2, 1)

    def test_stable_under_negative_masking(self):
        assert mix64(-1) == mix64((1 << 64) - 1)

    def test_range(self):
        for parts in [(), (0,), (1, 2), (10**20,)]:
            v = mix64(*parts)
            assert 0 <= v < (1 << 64)


class TestIntegerArguments:
    @pytest.mark.parametrize("bad", [2.7, "3", True], ids=["float", "str", "bool"])
    def test_non_integer_rejected(self, bad):
        for call in (lambda: RngStream(bad), lambda: RngStream(1, bad),
                     lambda: mix64(bad), lambda: mix64(1, bad)):
            with pytest.raises(DomainError, match="must be an integer"):
                call()

    def test_numpy_integers_accepted(self):
        assert np.array_equal(RngStream(np.uint64(5), np.int64(-1)).uniforms(8),
                              RngStream(5, -1).uniforms(8))
        assert mix64(np.uint64(5), np.int32(-2)) == mix64(5, -2)
