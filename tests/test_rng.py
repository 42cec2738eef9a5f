"""Counter-based stream reproducibility and distribution sanity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from depthrisk import DomainError, RngStream, mix64
from depthrisk.rng import CHUNK, normal_rows, uniform_rows

# Values pinned from the first release; any change here is a breaking
# change to the reproducibility contract.
UNIFORMS_123_7 = [
    0.10398137582682854,
    0.9878583044780417,
    0.9929982076816014,
    0.5786930632312249,
]
NORMALS_123_7 = [
    2.125636546017807,
    -0.1375869862414543,
    -0.09357469296963344,
    -0.07417437088508959,
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


def _normals_v0(u1: np.ndarray, u2: np.ndarray, n: int) -> np.ndarray:
    """The first release's Box-Muller normals of two uniform halves."""
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]


WORDS = st.integers(0, (1 << 64) - 1)
# empty, one, odd and just past a 2**18 batch
DRAW_COUNTS = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(1, 2000).map(lambda k: 2 * k + 1),
    st.integers(0, 9).map(lambda k: 2**18 + k),
)


class TestV0Bits:
    """The draws are the first release's formulas, bit for bit."""

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
        m = (n + 1) // 2
        raw = _raw_words(seed, stream_id, 2 * m)
        want = _normals_v0(_uniforms_v0(raw[:m]), _uniforms_v0(raw[m:]), n)
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
    time: counts of none, one and an odd number of normals, about one and two
    chunks of pairs, and one past a 2**18 batch."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [0, 1, 7, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 2, 2**18 + 1])
    def test_rows_are_first_release_stream_draws(self, k, n):
        got = normal_rows([RngStream(11, j) for j in range(k)], n)
        assert got.shape == (k, n) and got.flags.c_contiguous
        m = (n + 1) // 2
        for j, row in enumerate(got):
            raw = _raw_words(11, j, 2 * m)
            want = _normals_v0(_uniforms_v0(raw[:m]), _uniforms_v0(raw[m:]), n)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


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
