"""Gumbel marginals, Frank coupling, and cost attachment."""

import hashlib
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import brentq

from depthrisk import (
    AlreadyHasCosts,
    ConfigError,
    DepthModel,
    DimensionMismatch,
    DomainError,
    FrankGumbelConfig,
    GaussianConfig,
    GumbelMarginal,
    RngStream,
    Sample,
    attach_costs,
    build_spd,
    frank_pair,
    mix64,
    sample_gaussian,
    sample_risk_factors,
)
from depthrisk import sampling
from depthrisk.linalg import _column_norms, color
from depthrisk.rng import CHUNK

EULER_GAMMA = 0.5772156649015329
CFG = FrankGumbelConfig(
    theta=5.0,
    marg1=GumbelMarginal(0.0, 0.25),
    marg2=GumbelMarginal(-0.5, 0.25),
)
# population means mu + beta * gamma of the two marginals
MEAN_1 = 0.25 * EULER_GAMMA
MEAN_2 = -0.5 + 0.25 * EULER_GAMMA
# population variance beta^2 pi^2 / 6
VAR_MARGINAL = 0.0625 * math.pi**2 / 6.0


def quantile_v0(p, marg):
    """The first release's max-Gumbel quantile of a marginal, mu - beta log(-log p)."""
    return marg.mu - marg.beta * np.log(-np.log(p))


def gumbel_kernel(p, mu, beta):
    """The block draw's unchecked quantile kernel, on a copy of ``p``."""
    q = np.array(p, dtype=float)
    sampling._gumbel_quantile(q, mu, beta, out=q)
    return q


class TestGumbelQuantile:
    def test_mode_probability_is_location_exactly(self):
        # log(exp(-1.0)) rounds to -1.0, so the nesting cancels exactly
        assert gumbel_kernel(math.exp(-1.0), 0.0, 0.25) == 0.0
        assert gumbel_kernel(math.exp(-1.0), -0.5, 0.25) == -0.5

    def test_median(self):
        expect = -math.log(math.log(2.0))
        assert gumbel_kernel(0.5, 0.0, 1.0) == pytest.approx(expect, rel=1e-15)

    def test_location_scale(self):
        base = gumbel_kernel(0.3, 0.0, 1.0)
        assert gumbel_kernel(0.3, 2.0, 3.0) == pytest.approx(
            2.0 + 3.0 * base, rel=1e-14
        )

    def test_monotone(self):
        p = np.linspace(0.01, 0.99, 99)
        q = gumbel_kernel(p, 0.0, 0.25)
        assert np.all(np.diff(q) > 0)
        assert np.array_equal(q, quantile_v0(p, GumbelMarginal(0.0, 0.25)))

    def test_round_trip_with_cdf(self):
        p = np.linspace(0.05, 0.95, 19)
        x = gumbel_kernel(p, -0.5, 0.25)
        assert np.allclose(stats.gumbel_r.cdf(x, loc=-0.5, scale=0.25), p, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_endpoint_rejected(self, p):
        # the kernel is unchecked: a probability from outside is held to the
        # open interval by the rule frank_pair applies to its u and w
        with pytest.raises(DomainError, match=r"^p must lie strictly inside \(0, 1\)$"):
            sampling._as_open_unit(p, "p")

    def test_bad_beta(self):
        # the marginal's rule, checked by the law that holds it
        with pytest.raises(ConfigError, match=r"^marginals\[0\]\.beta: must be finite and > 0$"):
            FrankGumbelConfig(5.0, GumbelMarginal(0.0, 0.0), CFG.marg2)


class TestFrankPair:
    def test_matches_conditional_inversion_oracle(self):
        # root-find dC/du(u, v) = w directly on the copula derivative
        def ccond(u, v, th):
            num = math.exp(-th * u) * (math.exp(-th * v) - 1.0)
            den = math.exp(-th) - 1.0 + (math.exp(-th * u) - 1.0) * (
                math.exp(-th * v) - 1.0
            )
            return num / den

        cases = [(0.3, 0.7, 5.0), (0.9, 0.2, -3.0), (0.05, 0.95, 12.0)]
        for u, w, th in cases:
            v_oracle = brentq(
                lambda v: ccond(u, v, th) - w, 1e-15, 1.0 - 1e-15, xtol=1e-15
            )
            got_u, got_v = frank_pair(u, w, th)
            assert got_u == u
            assert got_v == pytest.approx(v_oracle, abs=1e-12)

    def test_median_conditional_is_symmetric(self):
        # at u = 0.5 and w = 0.5 the conditional median is 0.5 for any theta
        for th in (0.5, 5.0, -7.0, 50.0, 300.0, -200.0, 1e6):
            _, v = frank_pair(0.5, 0.5, th)
            assert v == pytest.approx(0.5, abs=1e-12)

    def test_extreme_theta_limits(self):
        # theta -> +inf approaches the comonotone copula (V -> U),
        # theta -> -inf the countermonotone one (V -> 1 - U)
        for u in (0.2, 0.5, 0.8):
            _, v = frank_pair(u, 0.5, 1000.0)
            assert v == pytest.approx(u, abs=0.01)
            _, v = frank_pair(u, 0.5, -1000.0)
            assert v == pytest.approx(1.0 - u, abs=0.01)
            assert 0.0 < v < 1.0

    def test_tiny_theta_routes_to_independence(self):
        u, v = frank_pair(0.37, 0.91, 1e-9)
        assert v == 0.91

    def test_zero_theta_rejected(self):
        with pytest.raises(DomainError):
            frank_pair(0.5, 0.5, 0.0)

    @pytest.mark.parametrize("u,w", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_endpoints_rejected(self, u, w):
        with pytest.raises(DomainError):
            frank_pair(u, w, 5.0)

    def test_output_stays_open(self):
        s = RngStream(11, 0)
        u = s.uniforms(50_000)
        w = s.uniforms(50_000)
        for th in (5.0, -5.0, 30.0):
            _, v = frank_pair(u, w, th)
            assert np.all(v > 0.0)
            assert np.all(v < 1.0)

    def test_kendall_tau(self):
        # Debye-function population value for theta = 5
        th = 5.0
        from scipy.integrate import quad

        debye1 = quad(lambda t: t / math.expm1(t), 0.0, th)[0] / th
        tau_pop = 1.0 - 4.0 / th * (1.0 - debye1)
        s = RngStream(7, mix64(43))
        u = s.uniforms(100_000)
        w = s.uniforms(100_000)
        uu, vv = frank_pair(u, w, th)
        tau = stats.kendalltau(uu, vv).statistic
        assert tau == pytest.approx(tau_pop, abs=0.01)

    def test_conditional_marginal_is_uniform(self):
        s = RngStream(7, mix64(42))
        u = s.uniforms(100_000)
        w = s.uniforms(100_000)
        _, v = frank_pair(u, w, 5.0)
        for t in (0.1, 0.25, 0.5, 0.75, 0.9):
            se = math.sqrt(t * (1.0 - t) / 100_000)
            assert abs(float(np.mean(v < t)) - t) < 3.0 * se


def _frank_v_exact(u: float, w: float, theta: float) -> Decimal:
    """log(D / N) / theta in 40-digit decimal arithmetic, D = w + e^(-theta u)
    (1 - w) and N = e^(-theta u) (1 - w) + w e^-theta, clipped to the open
    interval of the uniforms."""
    with localcontext() as ctx:
        ctx.prec = 40
        u, w, theta = Decimal(u), Decimal(w), Decimal(theta)
        t = (-theta * u).exp() * (1 - w)
        v = ((w + t) / (t + w * (-theta).exp())).ln() / theta
        return min(max(v, Decimal(2.0**-53)), Decimal(1.0 - 2.0**-53))


EPS = 2.0**-52
FRANK_THETAS = [0.5, -0.5, 5.0, -5.0, 30.0, -30.0, 50.0, 300.0, 1000.0, -1000.0, 1e6]
OPEN_EDGES = np.array([2.0**-53, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 2.0**-53])


def _frank_uniforms(seed, stream_id, n):
    """n stream uniforms for u and for w, then every pair of OPEN_EDGES, then
    20 u within 1e-12 of 0 and 20 within 1e-12 of 1, each with a stream w."""
    s = RngStream(seed, stream_id)
    edge_u, edge_w = np.meshgrid(OPEN_EDGES, OPEN_EDGES)
    tails = s.uniforms(40) * 1e-12
    return (np.concatenate([s.uniforms(n), edge_u.ravel(), tails[:20], 1.0 - tails[20:]]),
            np.concatenate([s.uniforms(n), edge_w.ravel(), s.uniforms(40)]))


class TestFrankKernel:
    """frank_pair against exact values and the copula's reflection."""

    def test_every_element_within_8_eps_of_exact(self):
        # relative error; the u tails catch a theta u rounded at full
        # magnitude as u -> 1, which erred by 2.2e8 eps at theta = -1e6
        u, w = _frank_uniforms(9, 3, 300)
        for theta in FRANK_THETAS + [-50.0, -100.0, -300.0, -700.0, -710.0, -5000.0, -1e6]:
            got_u, got = frank_pair(u, w, theta)
            assert got_u is u
            for i in range(len(u)):
                exact = _frank_v_exact(u[i], w[i], theta)
                assert abs(Decimal(got[i]) - exact) <= Decimal(8 * EPS) * exact, (theta, u[i], w[i])

    @pytest.mark.parametrize("theta", [0.5, 5.0, 30.0, 700.0, 710.0, 1000.0, 1e6])
    def test_reflection(self, theta):
        # C_-theta(u, v) = u - C_theta(u, 1 - v), so V(u, w; -theta) = 1 -
        # V(u, 1 - w; theta); 1 - w is exact for the stream's uniforms
        s = RngStream(5, 6)
        u, w = s.uniforms(4000), s.uniforms(4000)
        mirrored = 1.0 - frank_pair(u, 1.0 - w, theta)[1]
        assert np.all(np.abs(frank_pair(u, w, -theta)[1] - mirrored) <= 16 * 2.0**-53)

    def test_sampler_matches_frank_pair(self):
        # the sampler's unchecked kernels give frank_pair's V and the first
        # release's Gumbel quantiles, bit for bit
        for theta in (5.0, -30.0, 1000.0, 1e-9):
            cfg = FrankGumbelConfig(theta, CFG.marg1, CFG.marg2)
            got = sample_risk_factors(3001, cfg, RngStream(6, 1)).points
            s = RngStream(6, 1)
            u, v = frank_pair(s.uniforms(3001), s.uniforms(3001), theta)
            assert got.flags.c_contiguous
            assert np.array_equal(got[:, 0], quantile_v0(u, CFG.marg1))
            assert np.array_equal(got[:, 1], quantile_v0(v, CFG.marg2))

    def test_inputs_untouched_and_broadcast(self):
        u = np.array([0.2, 0.5, 0.9])
        w = np.array([0.3, 0.7, 0.999])
        keep = (u.copy(), w.copy())
        _, v = frank_pair(u, w, 5.0)
        assert np.array_equal(u, keep[0]) and np.array_equal(w, keep[1])
        _, row = frank_pair(u, 0.7, 5.0)
        assert row.shape == (3,) and row[1] == v[1]

    def test_draw_memory(self):
        # 2**18 rows of output are 4 MiB; the draw peaks at about 2.1x that
        # (2.7x when V and its quantiles were formed over all 2**18 columns)
        n = 2**18
        sample_risk_factors(64, CFG, RngStream(1))
        tracemalloc.start()
        try:
            sample_risk_factors(n, CFG, RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (16 * n)


class TestFrankOneFormPerElement:
    """An element's V has the same bits in any block that holds it: the
    draw and the model grid rely on it when they take blocks of columns."""

    @given(theta=st.sampled_from([5.0, -5.0, 30.0, -700.0, 1000.0, -1000.0]),
           seed=st.integers(0, (1 << 64) - 1), k=st.integers(1, 3), n=st.integers(1, 400))
    @settings(max_examples=60, deadline=None)
    def test_blocks_of_every_mix(self, theta, seed, k, n):
        # (k, n) halves of one row of 2n uniforms, as a law's draw takes them;
        # at |theta| = 1000 both parts mix log-space entries with the others
        uw = RngStream(seed, 17).uniforms(k * 2 * n).reshape(k, 2 * n)
        u, w = uw[:, :n], uw[:, n:]
        got = sampling._frank_v(u, w, theta)
        for part in (u < 0.5, u >= 0.5):
            alone = sampling._frank_v(u[part], w[part], theta)
            assert np.array_equal(alone.view(np.uint64), got[part].view(np.uint64))
        for i in range(min(n, 3)):  # 0-d inputs, through frank_pair
            assert frank_pair(float(u[0, i]), float(w[0, i]), theta)[1] == got[0, i]


class TestRiskFactors:
    def test_deterministic(self):
        a = sample_risk_factors(500, CFG, RngStream(3, 14))
        b = sample_risk_factors(500, CFG, RngStream(3, 14))
        assert np.array_equal(a.points, b.points)

    def test_shape_and_no_costs(self):
        s = sample_risk_factors(50, CFG, RngStream(0))
        assert s.points.shape == (50, 2)
        assert s.costs is None

    def test_marginal_means(self):
        s = sample_risk_factors(100_000, CFG, RngStream(12, 0))
        se = math.sqrt(VAR_MARGINAL / 100_000)
        assert abs(s.points[:, 0].mean() - MEAN_1) < 3.0 * se
        assert abs(s.points[:, 1].mean() - MEAN_2) < 3.0 * se

    def test_first_marginal_ks(self):
        # distribution test across independent seeds; a fixed small failure
        # rate is expected at the 1% level
        crit = 1.6276 / math.sqrt(10_000)
        hits = 0
        for seed in range(100):
            s = sample_risk_factors(10_000, CFG, RngStream(seed, mix64(41)))
            d = stats.kstest(
                s.points[:, 0], lambda x: stats.gumbel_r.cdf(x, loc=0.0, scale=0.25)
            ).statistic
            hits += d < crit
        assert hits >= 95

    def test_positive_dependence(self):
        s = sample_risk_factors(20_000, CFG, RngStream(2, 0))
        assert np.corrcoef(s.points.T)[0, 1] > 0.5

    def test_n_validation(self):
        with pytest.raises(DomainError):
            sample_risk_factors(0, CFG, RngStream(0))


class TestAttachCosts:
    def test_zero_noise_is_exact_squared_norm(self):
        s = sample_risk_factors(200, CFG, RngStream(5, 0))
        out = attach_costs(s, 0.0, RngStream(5, 1))
        x, y = s.points.T
        assert np.array_equal(out.costs, x * x + y * y)

    def test_zero_noise_consumes_no_stream(self):
        stream = RngStream(5, 1)
        s = Sample([[3.0, 4.0]])
        attach_costs(s, 0.0, stream)
        assert np.array_equal(stream.uniforms(2), RngStream(5, 1).uniforms(2))

    def test_hand_value(self):
        out = attach_costs(Sample([[3.0, 4.0]]), 0.0, RngStream(0))
        assert out.costs[0] == 25.0

    def test_noise_variance(self):
        s = Sample(np.zeros((1_000_000, 2)))
        out = attach_costs(s, 0.005, RngStream(9, 2))
        # costs are pure noise here
        var = out.costs.var()
        se = 0.005 * math.sqrt(2.0 / 1e6)
        assert abs(var - 0.005) < 3.0 * se
        assert abs(out.costs.mean()) < 3.0 * math.sqrt(0.005 / 1e6)

    def test_already_has_costs(self):
        s = Sample([[1.0, 2.0]], costs=[3.0])
        with pytest.raises(AlreadyHasCosts):
            attach_costs(s, 0.0, RngStream(0))

    def test_negative_variance(self):
        with pytest.raises(DomainError):
            attach_costs(Sample([[1.0, 2.0]]), -0.1, RngStream(0))

    def test_original_sample_untouched(self):
        s = Sample([[1.0, 2.0]])
        attach_costs(s, 0.0, RngStream(0))
        assert s.costs is None


class TestSampleGaussian:
    def test_moments(self):
        model = DepthModel(
            np.array([1.0, -2.0]), build_spd([[2.0, 0.6], [0.6, 1.0]])
        )
        s = sample_gaussian(200_000, model, RngStream(21, 0))
        n = s.n
        for j, (m, v) in enumerate([(1.0, 2.0), (-2.0, 1.0)]):
            assert abs(s.points[:, j].mean() - m) < 3.0 * math.sqrt(v / n)
        cov = np.cov(s.points.T)
        assert cov[0, 1] == pytest.approx(0.6, abs=3.0 * math.sqrt(2.0 * 2.0 / n))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_v0_bits(self, d):
        # the first release's mu + color(L, z').T, bit for bit and in its layout
        sigma = build_spd(np.eye(d) + 0.3)
        model = DepthModel(np.arange(1.0, d + 1.0), sigma)
        got = sample_gaussian(1001, model, RngStream(3, d)).points
        z = RngStream(3, d).normals(1001 * d).reshape(1001, d)
        want = model.mu + color(sigma.chol, z.T).T
        assert got.flags.f_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_mean_shift(self):
        base = DepthModel(np.zeros(2), build_spd(np.eye(2)))
        shifted = DepthModel(np.array([5.0, 5.0]), build_spd(np.eye(2)))
        a = sample_gaussian(100, base, RngStream(4, 0))
        b = sample_gaussian(100, shifted, RngStream(4, 0))
        assert np.allclose(b.points - a.points, 5.0, rtol=0, atol=1e-12)

    def test_n_validation(self):
        model = DepthModel(np.zeros(2), build_spd(np.eye(2)))
        with pytest.raises(DomainError):
            sample_gaussian(0, model, RngStream(0))


def _frank_points_one_stream(n, cfg, stream):
    """The single-stream Frank-Gumbel draw before block draws: n uniforms u,
    then n uniforms w, frank_pair's V, and the first release's Gumbel
    quantiles of (u, V)."""
    u = stream.uniforms(n)
    _, v = frank_pair(u, stream.uniforms(n), cfg.theta)
    return np.column_stack([quantile_v0(u, cfg.marg1), quantile_v0(v, cfg.marg2)])


def _gaussian_points_one_stream(n, law, stream):
    """The single-stream Gaussian draw before block draws: n * d normals read
    as n points of d coordinates, colored by the Cholesky factor."""
    model = law.exact_model
    z = stream.normals(n * model.dim).reshape(n, model.dim)
    return model.mu + color(model.sigma.chol, z.T).T


# theta = -1000 and 1000 take the log-space fix-up of the Frank inversion
# for some entries, 1e-9 the independence limit
BLOCK_LAWS = [
    *(FrankGumbelConfig(theta, CFG.marg1, CFG.marg2)
      for theta in (5.0, -5.0, -700.0, 30.0, 1000.0, -1000.0, 1e-9)),
    *(GaussianConfig(tuple(np.arange(1.0, d + 1.0)), tuple(map(tuple, np.eye(d) + 0.3)))
      for d in (1, 2, 3)),
]


class TestBlockDraw:
    @given(law=st.sampled_from(BLOCK_LAWS), seed=st.integers(0, (1 << 64) - 1),
           k=st.integers(1, 4), n=st.one_of(st.sampled_from([1, 2]), st.integers(1, 400)))
    @settings(max_examples=80, deadline=None)
    def test_rows_are_single_stream_draws(self, law, seed, k, n):
        reference = (_frank_points_one_stream if isinstance(law, FrankGumbelConfig)
                     else _gaussian_points_one_stream)
        streams = [RngStream(seed, j) for j in range(k)]
        cols = law.draw(n, streams)
        assert cols.shape == (k, law.exact_model.dim, n) and cols.flags.c_contiguous
        for j, (got, stream) in enumerate(zip(cols, streams)):
            alone = RngStream(seed, j)
            want = reference(n, law, alone)
            assert np.array_equal(got.T.view(np.uint64), want.view(np.uint64))
            assert stream.uniforms(1)[0] == alone.uniforms(1)[0]

    def test_one_stream_samplers_keep_their_layouts(self):
        # the first release's layouts: C for the Frank law, F for the Gaussian
        assert sample_risk_factors(9, CFG, RngStream(1)).points.flags.c_contiguous
        law = BLOCK_LAWS[-1]
        assert sample_gaussian(9, law.exact_model, RngStream(1)).points.flags.f_contiguous

    @pytest.mark.parametrize("law", [CFG, BLOCK_LAWS[-1]])
    def test_n_validation(self, law):
        for bad in (0, 1.5, True):
            with pytest.raises(DomainError):
                law.draw(bad, [RngStream(0)])


# The Gaussian law colors CHUNK points at a time: counts of one, odd, about
# one chunk and one past a 2**18 batch
DRAW_OUT_LAWS = {"frank": CFG, "gaussian": BLOCK_LAWS[-1]}


# SHA-256 of a two-stream Frank draw, recorded before the draw formed V and
# its quantiles CHUNK columns at a time, re-recorded for the one-form Frank
# kernel.  Bit signature: numpy 2.4.6; dispatch features X86_V3, X86_V4,
# AVX512_ICL and AVX512_SPR on; OpenBLAS core SkylakeX.
FRANK_DRAW_DIGESTS = {
    (5.0, 1): "92bc32cf154960c3344774d8bc2919d41f054ef136afa60bdf3b4bd767fb9f32",
    (5.0, 7): "1ec8ea06cf762f266729e47444109e06c8a3e9527a0cca0aaff657ca136b75ad",
    (5.0, CHUNK - 1): "5e6b18155ca2e12664128db56288daee23e9c19c5eefd2cc7479ded618fc233d",
    (5.0, CHUNK + 1): "af516705e53bb798e3ec4737fb715aaa031ca75cc39d38e77ed58bc1d583ff2f",
    (5.0, 2**18 + 1): "c6822fa7c0d7e1f143f3b0ec1c8db41325af973ca14199ed2a7d643a464f57da",
    (-700.0, 1): "543c0d859e86c51ed0210d3dc42b55f147fc80528512b42467a84e814f142b67",
    (-700.0, 7): "9b8cb0b545bde32eec5458705ef00749433fc78eefafef831fecd1759f342c25",
    (-700.0, CHUNK - 1): "142bec1a416acd22534f39c92ad476df6a60531688dda648d1a169cf5073c2ce",
    (-700.0, CHUNK + 1): "8250d026ea56682e8fafb0a015838d78cf8272f2bcaba999149ca5cd30a70eb1",
    (-700.0, 2**18 + 1): "06ca2c1a56658e4d31dd566479070838ac4ca0ac9513021b3774634d8151bf47",
}


@pytest.mark.parametrize("theta, n", sorted(FRANK_DRAW_DIGESTS))
def test_frank_draw_bits(theta, n):
    cfg = FrankGumbelConfig(theta, CFG.marg1, CFG.marg2)
    cols = cfg.draw(n, [RngStream(25, j) for j in range(2)])
    assert hashlib.sha256(cols.tobytes()).hexdigest() == FRANK_DRAW_DIGESTS[theta, n]


class TestDrawOut:
    @pytest.mark.parametrize("law", sorted(DRAW_OUT_LAWS))
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 7, CHUNK - 1, CHUNK + 1, 2**18 + 1])
    def test_out_gets_the_draw_bits(self, law, k, n):
        law = DRAW_OUT_LAWS[law]
        want = law.draw(n, [RngStream(12, j) for j in range(k)])
        buf = np.full(want.shape, np.nan)
        assert law.draw(n, [RngStream(12, j) for j in range(k)], out=buf) is buf
        assert np.array_equal(buf.view(np.uint64), want.view(np.uint64))
        reference = (_frank_points_one_stream if isinstance(law, FrankGumbelConfig)
                     else _gaussian_points_one_stream)
        first = reference(n, law, RngStream(12, 0))
        assert np.array_equal(buf[0].T.view(np.uint64), first.view(np.uint64))

    @pytest.mark.parametrize("law", sorted(DRAW_OUT_LAWS))
    def test_bad_out_is_refused_before_drawing(self, law):
        law = DRAW_OUT_LAWS[law]
        shape = (2, law.exact_model.dim, 5)
        read_only = np.empty(shape)
        read_only.setflags(write=False)
        for bad in (np.empty(shape[1:]), np.empty(shape, dtype=np.float32),
                    np.empty(shape[::-1]).T, read_only, np.empty(shape).tolist()):
            streams = [RngStream(13, j) for j in range(2)]
            with pytest.raises(DimensionMismatch, match="^out must be a writable C-contiguous"):
                law.draw(5, streams, out=bad)
            assert streams[0].uniforms(1)[0] == RngStream(13, 0).uniforms(1)[0]


class TestSquaredNorms:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_independent_of_layout(self, d):
        # the squared norms of (d, n) columns, the noise-free cost map
        cols = RngStream(4, d).normals(7 * d).reshape(d, 7)
        want = _column_norms(cols)
        assert np.array_equal(_column_norms(np.asfortranarray(cols)), want)
        assert np.array_equal(_column_norms(cols.T.copy().T), want)
        assert np.allclose(want, np.sum(cols * cols, axis=0), rtol=1e-15, atol=0)


class TestSample:
    def test_points_read_only(self):
        s = Sample([[1.0, 2.0]])
        with pytest.raises(ValueError):
            s.points[0, 0] = 9.0

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            Sample([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            Sample(np.empty((0, 2)))
        with pytest.raises(DimensionMismatch):  # points with no coordinates
            Sample(np.zeros((3, 0)))

    def test_cost_length_validation(self):
        with pytest.raises(DimensionMismatch):
            Sample([[1.0, 2.0]], costs=[1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="points must be finite"):
            Sample([[bad, 0.0], [1.0, 2.0]])
        with pytest.raises(DomainError, match="costs must be finite"):
            Sample([[0.0, 0.0], [1.0, 2.0]], costs=[1.0, bad])

    def test_properties(self):
        s = Sample(np.ones((7, 3)))
        assert s.n == 7
        assert s.dim == 3

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_arrays_stay_writable(self, order):
        points, costs = np.zeros((3, 2), order=order), np.ones(3)
        s = Sample(points, costs)
        points[0, 0], costs[0] = 9.0, 9.0
        assert s.points[0, 0] == 0.0 and s.costs[0] == 1.0
        # the sample's own copies keep the caller's layout and stay read-only
        assert s.points.flags[f"{order}_CONTIGUOUS"]
        for own in (s.points, s.costs):
            with pytest.raises(ValueError, match="read-only"):
                own[0] = 5.0
        assert s.points[0, 0] == 0.0 and s.costs[0] == 1.0

    def test_read_only_arrays_are_kept(self):
        # the library's samplers hand over frozen arrays: no second copy
        s = sample_risk_factors(9, CFG, RngStream(1))
        assert attach_costs(s, 0.1, RngStream(2)).points is s.points


class TestFrankGumbelConfig:
    def test_all_violations_reported_together(self):
        with pytest.raises(ConfigError) as exc:
            FrankGumbelConfig(
                theta=0.0,
                marg1=GumbelMarginal(0.0, -1.0),
                marg2=GumbelMarginal(0.0, 0.25),
                noise_var=-0.1,
            )
        msg = str(exc.value)
        assert "theta" in msg
        assert "marginals[0].beta" in msg
        assert "noise_var" in msg

    @pytest.mark.parametrize("field", ["theta", "noise_var"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, bad):
        params = dict(theta=5.0, marg1=GumbelMarginal(0.0, 0.25),
                      marg2=GumbelMarginal(-0.5, 0.25), noise_var=0.005)
        params[field] = bad
        with pytest.raises(ConfigError) as exc:
            FrankGumbelConfig(**params)
        assert f"{field}: must be finite" in str(exc.value)

    @pytest.mark.parametrize("marg", [GumbelMarginal(float("nan"), 0.25),
                                      GumbelMarginal(0.0, float("inf"))])
    def test_non_finite_marginal_rejected(self, marg):
        with pytest.raises(ConfigError, match=r"marginals\[1\]"):
            FrankGumbelConfig(theta=5.0, marg1=GumbelMarginal(0.0, 0.25), marg2=marg)

    def test_json_round_trip(self):
        back = FrankGumbelConfig.from_json(CFG.to_json())
        assert back == CFG

    def test_seed_key_points_to_master_seed(self):
        obj = dict(CFG.to_json(), seed=99)
        with pytest.raises(ConfigError, match=r"seed: .*master_seed"):
            FrankGumbelConfig.from_json(obj)

    def test_missing_keys_all_listed(self):
        with pytest.raises(ConfigError) as exc:
            FrankGumbelConfig.from_json({})
        msg = str(exc.value)
        for key in ("theta", "marginals"):
            assert f"{key}: missing" in msg
        # noise_var is optional, with the default the Gaussian's JSON has
        assert "noise_var" not in msg
        obj = CFG.to_json()
        del obj["noise_var"]
        assert FrankGumbelConfig.from_json(obj).noise_var == 0.005

    def test_missing_nested_marginal_fields(self):
        with pytest.raises(ConfigError) as exc:
            FrankGumbelConfig.from_json(
                {"theta": 5.0, "marginals": [{"mu": 0.0}, {"beta": 1.0}], "noise_var": 0.0}
            )
        msg = str(exc.value)
        assert "marginals[0].beta: missing" in msg
        assert "marginals[1].mu: missing" in msg

    def test_wrong_marginal_count(self):
        with pytest.raises(ConfigError):
            FrankGumbelConfig.from_json(
                {"theta": 5.0, "marginals": [{"mu": 0.0, "beta": 1.0}], "noise_var": 0.0}
            )
