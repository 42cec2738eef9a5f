"""Tail-expectation estimator, its oracles, population models and moment fitting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.integrate import dblquad

from depthrisk import (
    CcteEstimate,
    ConfigError,
    DegenerateSample,
    DepthModel,
    DimensionMismatch,
    DomainError,
    FrankGumbelConfig,
    GaussianConfig,
    GumbelMarginal,
    MissingCosts,
    NoMass,
    RngStream,
    Sample,
    attach_costs,
    build_spd,
    ccte_hat,
    ccte_true_oracle,
    ccte_under_model,
    estimate_population_model,
    gaussian_population,
    mahalanobis_sq,
    mhd,
    mix64,
    sample_gaussian,
    sample_risk_factors,
)
from depthrisk import sampling
from depthrisk.ccte import BATCH_ROWS, _ratio_under_models
from depthrisk.depth import fit_columns
from depthrisk.experiments import cell_estimates
from depthrisk.levelset import BOUNDARY_TOL, depth_in_lower_set
from depthrisk.linalg import whiten
from depthrisk.sampling import _FRANK_TRUTH_GRIDS, INDEPENDENCE_THETA

FRANK_CFG = FrankGumbelConfig(
    theta=5.0,
    marg1=GumbelMarginal(0.0, 0.25),
    marg2=GumbelMarginal(-0.5, 0.25),
)
# Frank-Gumbel population moments: marginal means mu + beta*gamma and
# variance beta^2 pi^2/6 in closed form; the cross-covariance
# beta1*beta2*(E[g(U)g(V)] - gamma^2) via adaptive quadrature over the
# copula density (stable to ~1e-11)
FRANK_MEANS = (0.14430391622538322, -0.3556960837746168)
FRANK_VAR = 0.10280837917801415
FRANK_COV = 0.05884385222091916


def std_model(d=2):
    return DepthModel(np.zeros(d), build_spd(np.eye(d)))


def costed(points, costs):
    return Sample(np.asarray(points, dtype=float), np.asarray(costs, dtype=float))


def traced_peak(call):
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCcteUnderModel:
    def test_hand_case(self):
        # members at alpha = 0.5 are the points with squared distance >= 1
        sample = costed([[2.0, 0.0], [0.1, 0.0], [3.0, 0.0]], [4.0, 1.0, 9.0])
        est = ccte_under_model(std_model(), sample, 0.5, n1=4)
        assert est.value == 6.5
        assert est.hits == 2
        assert est.n1 == 4
        assert est.n2 == 3
        assert not est.degenerate

    def test_full_membership_is_plain_mean(self):
        rng = RngStream(31, 0)
        pts = rng.normals(40).reshape(20, 2) + np.array([5.0, 5.0])
        costs = rng.uniforms(20) * 10.0
        est = ccte_under_model(std_model(), costed(pts, costs), 0.999, n1=20)
        assert est.hits == 20
        assert est.value == float(np.sum(costs) / 20)

    def test_degenerate_zero_over_zero(self):
        sample = costed([[0.1, 0.0], [0.0, 0.2]], [1.0, 2.0])
        est = ccte_under_model(std_model(), sample, 1e-6, n1=2)
        assert est.degenerate
        assert est.value == 0.0
        assert est.hits == 0

    def test_hits_bounded_by_n2(self):
        rng = RngStream(32, 0)
        pts = rng.normals(60).reshape(30, 2) * 2.0
        costs = rng.uniforms(30)
        for alpha in (0.05, 0.3, 0.5, 0.9, 0.999):
            est = ccte_under_model(std_model(), costed(pts, costs), alpha, n1=30)
            assert 0 <= est.hits <= est.n2
            if est.degenerate:
                assert est.value == 0.0

    def test_missing_costs(self):
        with pytest.raises(MissingCosts):
            ccte_under_model(std_model(), Sample([[1.0, 1.0]]), 0.5, n1=1)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0])
    def test_alpha_validation(self, alpha):
        sample = costed([[1.0, 1.0]], [1.0])
        with pytest.raises(DomainError):
            ccte_under_model(std_model(), sample, alpha, n1=1)

    def test_json_fields(self):
        est = CcteEstimate(1.5, 10, 20, 0.5, 7, False)
        assert est.to_json() == {
            "value": 1.5, "n1": 10, "n2": 20, "alpha": 0.5,
            "hits": 7, "degenerate": False,
        }


class TestEquivariance:
    def _fixture(self):
        rng = RngStream(33, 0)
        pts = rng.normals(80).reshape(40, 2) * 2.0
        costs = np.floor(rng.uniforms(40) * 20.0)  # integer-valued floats
        return costed(pts, costs)

    def test_cost_shift_exact(self):
        sample = self._fixture()
        base = ccte_under_model(std_model(), sample, 0.5, n1=40)
        for c in (1.0, 7.0, -3.0):
            shifted = Sample(sample.points, sample.costs + c)
            got = ccte_under_model(std_model(), shifted, 0.5, n1=40)
            # integer costs and integer hits keep every sum exact
            assert got.value == base.value + c
            assert got.hits == base.hits

    def test_cost_shift_float(self):
        rng = RngStream(34, 0)
        sample = costed(rng.normals(80).reshape(40, 2) * 2.0, rng.uniforms(40))
        base = ccte_under_model(std_model(), sample, 0.5, n1=40)
        shifted = Sample(sample.points, sample.costs + 0.377)
        got = ccte_under_model(std_model(), shifted, 0.5, n1=40)
        assert got.value == pytest.approx(base.value + 0.377, abs=1e-12)

    def test_cost_scale_exact_power_of_two(self):
        sample = self._fixture()
        base = ccte_under_model(std_model(), sample, 0.5, n1=40)
        scaled = Sample(sample.points, sample.costs * 2.0)
        got = ccte_under_model(std_model(), scaled, 0.5, n1=40)
        assert got.value == 2.0 * base.value

    def test_cost_scale_float(self):
        sample = self._fixture()
        base = ccte_under_model(std_model(), sample, 0.5, n1=40)
        scaled = Sample(sample.points, sample.costs * 1.7)
        got = ccte_under_model(std_model(), scaled, 0.5, n1=40)
        assert got.value == pytest.approx(1.7 * base.value, rel=1e-14)


class TestBruteForce:
    """ccte_hat equals direct enumeration of the ratio for tiny cost samples."""

    @pytest.mark.parametrize("n2", [1, 3, 12])
    def test_matches_enumeration(self, n2):
        rng = RngStream(35, n2)
        level = Sample(rng.normals(400).reshape(200, 2))
        pts = rng.normals(2 * n2).reshape(n2, 2) * 2.0
        costs = rng.uniforms(n2) * 5.0
        alpha = 0.5
        est = ccte_hat(level, costed(pts, costs), alpha)

        from depthrisk import fit_model

        model = fit_model(level)
        threshold = 1.0 / alpha - 1.0
        member_costs = []
        for i in range(n2):
            d2 = mahalanobis_sq(pts[i], model)
            # stay honest: no point may sit on the membership boundary
            assert abs(d2 - threshold) > 1e-6
            if d2 >= threshold:
                member_costs.append(costs[i])
        if not member_costs:
            assert est.degenerate and est.value == 0.0
            return
        expect = float(np.sum(np.array(member_costs)) / len(member_costs))
        assert est.value == expect
        assert est.hits == len(member_costs)

    def test_integer_costs_pure_python(self):
        # with integer-valued costs the running Python sum is exact too
        rng = RngStream(36, 0)
        level = Sample(rng.normals(400).reshape(200, 2))
        pts = rng.normals(24).reshape(12, 2) * 2.0
        costs = np.floor(rng.uniforms(12) * 9.0)
        est = ccte_hat(level, costed(pts, costs), 0.5)

        from depthrisk import fit_model

        model = fit_model(level)
        total, k = 0.0, 0
        for i in range(12):
            if mahalanobis_sq(pts[i], model) >= 1.0:
                total += float(costs[i])
                k += 1
        assert k == est.hits
        if k:
            assert est.value == total / k


class FlatSecondCoordinate:
    """A law whose draws from stream id 1 have a constant second coordinate."""

    noise_var = 0.0
    exact_model = None

    def draw(self, n, streams):
        cols = np.stack([rng.normals(2 * n).reshape(2, n) for rng in streams])
        for rng, c in zip(streams, cols):
            if rng.stream_id == 1:
                c[1] = 0.5
        return cols


def fitted_ratios(level, cost, costs, levels):
    """The estimator path on stacked columns: the fitting core, then the kernel."""
    mu, _, low = fit_columns(level)
    return _ratio_under_models(mu, low, cost, costs, levels)


class TestBatch:
    # the fitting core and the kernel take points as columns: (replicates, d, points)

    def test_degenerate_replicate_is_named(self):
        # replicate 1 has a constant second coordinate: singular covariance
        streams = [RngStream(38, j) for j in range(3)]
        with pytest.raises(DegenerateSample, match="matrix 1 of the stack"):
            cell_estimates(FlatSecondCoordinate(), 20, [0.5], streams)

    def test_too_few_level_points(self):
        law = GaussianConfig(mu=(0.0, 0.0), sigma=((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(DegenerateSample):
            cell_estimates(law, 2, [0.5], [RngStream(38, j) for j in range(2)])

    def test_shape_mismatch(self):
        rng = RngStream(38, 3)
        cost = costed(rng.normals(12).reshape(4, 3), np.ones(4))
        with pytest.raises(DimensionMismatch):
            ccte_hat(Sample(rng.normals(16).reshape(8, 2)), cost, 0.5)
        with pytest.raises(DimensionMismatch):
            ccte_under_model(std_model(), cost, 0.5, n1=8)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 5]),
        k=st.integers(1, 6),
        extra=st.integers(1, 30),
        n2=st.integers(1, 30),
        levels=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
        flat=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_replicate_calls(self, d, k, extra, n2, levels, flat, seed):
        # the stacked path equals one ccte_hat call per replicate and level,
        # exactly; replicate ``flat % k`` has its cost points at its level
        # mean, so it has no hit at any level
        rng = RngStream(seed, 39)
        n1 = d + extra
        level = rng.normals(k * d * n1).reshape(k, d, n1)
        cost = 1.5 * rng.normals(k * d * n2).reshape(k, d, n2)
        cost[flat % k] = level[flat % k].mean(axis=1, keepdims=True)
        costs = rng.uniforms(k * n2).reshape(k, n2)
        values, hits = fitted_ratios(level, cost, costs, levels)
        assert values.shape == hits.shape == (len(levels), k)
        assert not np.any(hits[:, flat % k])
        for i, alpha in enumerate(levels):
            for r in range(k):
                est = ccte_hat(Sample(level[r].T), costed(cost[r].T, costs[r]), alpha)
                assert est.hits == hits[i, r]
                assert est.degenerate == (hits[i, r] == 0)
                assert est.value == values[i, r]

    def test_level_sequence_gives_one_row_per_level(self):
        rng = RngStream(40, 0)
        level = rng.normals(5 * 2 * 30).reshape(5, 2, 30)
        cost = rng.normals(5 * 2 * 25).reshape(5, 2, 25) * 1.5
        costs = rng.uniforms(5 * 25).reshape(5, 25)
        levels = (0.05, 0.3, 0.9)
        values, hits = fitted_ratios(level, cost, costs, levels)
        assert values.shape == hits.shape == (3, 5)
        for i, alpha in enumerate(levels):
            one_values, one_hits = fitted_ratios(level, cost, costs, [alpha])
            assert one_values.shape == one_hits.shape == (1, 5)
            assert np.array_equal(values[i], one_values[0])
            assert np.array_equal(hits[i], one_hits[0])

    @pytest.mark.parametrize("alpha", [(), (0.5, 1.0), (0.0, 0.5), [[0.5]], 1.0, -0.1])
    def test_level_validation(self, alpha):
        # the estimator takes one level: a sequence is refused like a bad level
        rng = RngStream(40, 1)
        pts = rng.normals(2 * 10).reshape(10, 2)
        with pytest.raises(DomainError):
            ccte_hat(Sample(pts), costed(pts, np.ones(10)), alpha)


class TestRatioKernel:
    """The kernel's compacted member sums against each replicate's members
    summed on their own, one boolean-indexed ``np.sum`` each."""

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        kinds=st.lists(st.sampled_from(["mixed", "none", "all"]), min_size=1, max_size=6),
        n2=st.one_of(st.sampled_from([1, 7, 8, 9, 127, 128, 129, 256, 257]),
                     st.integers(1, 600)),
        levels=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sums_are_each_replicates_own(self, d, kinds, n2, levels, seed):
        # n2 crosses numpy's 8-term unrolled and 128-term pairwise blocks; a
        # "none" replicate has every cost point at its center (depth 1), an
        # "all" replicate every cost point far out (depth near 0)
        rng = np.random.default_rng(seed)
        k = len(kinds)
        mu = rng.normal(size=(k, d))
        a = rng.normal(size=(k, d, d))
        low = np.linalg.cholesky(a @ np.swapaxes(a, -1, -2) + d * np.eye(d))
        cost_cols = mu[..., None] + 2.0 * rng.normal(size=(k, d, n2))
        for r, kind in enumerate(kinds):
            if kind == "none":
                cost_cols[r] = mu[r][:, None]
            elif kind == "all":
                cost_cols[r] += 1e6
        costs = rng.normal(size=(k, n2)) * rng.uniform(0.1, 100.0)
        values, hits = _ratio_under_models(mu, low, cost_cols, costs, levels)
        assert values.shape == hits.shape == (len(levels), k)
        # the depths as mhd forms them, the squares summed coordinate by
        # coordinate: the sums are under test here
        w = whiten(low, cost_cols - mu[..., None])
        depth = 1.0 / (1.0 + sum(w[:, i] * w[:, i] for i in range(d)))
        for i, alpha in enumerate(levels):
            for r, kind in enumerate(kinds):
                member = depth_in_lower_set(depth[r], alpha)
                count = np.count_nonzero(member)
                assert hits[i, r] == count == {"none": 0, "all": n2}.get(kind, count)
                want = np.sum(costs[r][member]) / count if count else 0.0
                assert values[i, r] == want

    @pytest.mark.parametrize("d", [3, 4])
    def test_one_cost_point_has_its_mhd_depth(self, d):
        # a level whose boundary falls exactly on a point's batch depth takes
        # the point in, and the level one step below leaves it out: so the
        # kernel's depth of a single cost point is mhd's, bit for bit
        def level_at(t):
            a = float(t) - BOUNDARY_TOL
            while a + BOUNDARY_TOL > t:
                a = float(np.nextafter(a, 0.0))
            while a + BOUNDARY_TOL < t:
                a = float(np.nextafter(a, 1.0))
            assert a + BOUNDARY_TOL == t
            return a

        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        model = DepthModel(rng.normal(size=d), build_spd(a @ a.T + d * np.eye(d)))
        pts = rng.normal(size=(2000, d)) * 3.0
        for x, depth in zip(pts, mhd(pts, model)):
            point = costed(x[None], np.ones(1))
            inside = ccte_under_model(model, point, level_at(depth), 1)
            outside = ccte_under_model(model, point, level_at(np.nextafter(depth, 0.0)), 1)
            assert (inside.hits, outside.hits) == (1, 0)


class TestSplitMode:
    def test_missing_costs_two_sample(self):
        with pytest.raises(MissingCosts):
            ccte_hat(Sample(np.eye(3)[:, :2] + 1.0), Sample([[1.0, 1.0]]), 0.5)


# The oracle's output bits, pinned: repr of ccte_true_oracle(law, alpha,
# n_mc, RngStream(21, i)) for law i of ORACLE_LAWS (Gaussian d = 1, 2, 3 and
# the acceptance-07 Frank law), one pair per level.  Recorded from the oracle
# that allocated fresh arrays for every batch, the Gaussian rows again when
# Box-Muller took the half-angle form, the Frank rows again for the one-form
# Frank kernel; 2 * 2**18 + 17 draws end on a short batch.  Bit signature:
# numpy 2.4.6; dispatch features X86_V3, X86_V4, AVX512_ICL and AVX512_SPR
# on; OpenBLAS core SkylakeX.
ORACLE_LAWS = [
    GaussianConfig((0.3,), ((2.0,),)),
    GaussianConfig((1.0, -0.5), ((1.0, 0.6), (0.6, 2.0))),
    GaussianConfig((0.5, -1.0, 0.25), ((2.0, 0.3, 0.1), (0.3, 1.0, -0.2), (0.1, -0.2, 0.5))),
    FrankGumbelConfig(5.0, GumbelMarginal(0.0, 0.25), GumbelMarginal(-0.5, 0.25), 0.005),
]
ORACLE_LAW_INDEX = {"gauss1": 0, "gauss2": 1, "gauss3": 2, "frank": 3}
ORACLE_BITS = [
    ("gauss1", 100_000, 0.25, ["(9.553445458958446, 0.04403382324252177)"]),
    ("gauss1", 100_000, (0.1, 0.5, 0.9), ["(21.47681732589798, 0.27024261781750897)",
                                          "(5.154258399733161, 0.020177585226297333)",
                                          "(2.7811239912930557, 0.011730491465473636)"]),
    ("gauss1", 524_305, 0.25, ["(9.523352764644454, 0.019198127157751495)"]),
    ("gauss1", 524_305, (0.1, 0.5, 0.9), ["(21.924072779918394, 0.12600035031335347)",
                                          "(5.137895103395453, 0.008765089360712991)",
                                          "(2.775133665091871, 0.005097639913164449)"]),
    ("gauss1", 1_000_000, 0.25, ["(9.51030987918512, 0.013764918650583113)"]),
    ("gauss1", 1_000_000, (0.1, 0.5, 0.9), ["(21.807706890987333, 0.08849655327557879)",
                                            "(5.1447183648383925, 0.006334240818364719)",
                                            "(2.7784736286844294, 0.0036903012844104726)"]),
    ("gauss2", 100_000, 0.25, ["(8.706499615221784, 0.0344046012207706)"]),
    ("gauss2", 100_000, (0.1, 0.5, 0.9), ["(17.660763188967948, 0.244797030132486)",
                                          "(5.732880723379078, 0.01729162784216519)",
                                          "(4.407689998092921, 0.01267222721497656)"]),
    ("gauss2", 524_305, 0.25, ["(8.737886698804012, 0.015083392477536624)"]),
    ("gauss2", 524_305, (0.1, 0.5, 0.9), ["(17.68250687140094, 0.10839818060031227)",
                                          "(5.743659465043606, 0.0075756364569653095)",
                                          "(4.410299040955225, 0.00555264903236992)"]),
    ("gauss2", 1_000_000, 0.25, ["(8.75250654260779, 0.010930816706444161)"]),
    ("gauss2", 1_000_000, (0.1, 0.5, 0.9), ["(17.708820561237324, 0.07798571526369903)",
                                            "(5.752571649706126, 0.005493474703609764)",
                                            "(4.417819162952409, 0.004027902529235366)"]),
    ("gauss3", 100_000, 0.25, ["(7.5966563998662755, 0.024574033566595335)"]),
    ("gauss3", 100_000, (0.1, 0.5, 0.9), ["(14.448798680372414, 0.13285023745281424)",
                                          "(5.521874752676283, 0.014991604483605148)",
                                          "(4.856033769784471, 0.013000540808959937)"]),
    ("gauss3", 524_305, 0.25, ["(7.56963803438987, 0.010651400867228045)"]),
    ("gauss3", 524_305, (0.1, 0.5, 0.9), ["(14.401833371371215, 0.05773835697577258)",
                                          "(5.5157746813379775, 0.0065123686323530425)",
                                          "(4.842796695091758, 0.005643566029255708)"]),
    ("gauss3", 1_000_000, 0.25, ["(7.56256389909868, 0.007704764549279569)"]),
    ("gauss3", 1_000_000, (0.1, 0.5, 0.9), ["(14.401033124507835, 0.04199870005459025)",
                                            "(5.5150039274935745, 0.004711167266567166)",
                                            "(4.84327057892893, 0.0040844913715336615)"]),
    ("frank", 100_000, 0.25, ["(0.6936681117350741, 0.004657705290165706)"]),
    ("frank", 100_000, (0.1, 0.5, 0.9), ["(1.3172855132279024, 0.014965355935401218)",
                                         "(0.48132290271619405, 0.0017245207131396652)",
                                         "(0.3688293498557025, 0.0010778510546622252)"]),
    ("frank", 524_305, 0.25, ["(0.6928753478727304, 0.0020388794723249135)"]),
    ("frank", 524_305, (0.1, 0.5, 0.9), ["(1.325640662549917, 0.006523991618664903)",
                                         "(0.4794589579710503, 0.0007539572338406853)",
                                         "(0.3680750407317696, 0.0004702879025994602)"]),
    ("frank", 1_000_000, 0.25, ["(0.6935710178283832, 0.0014802474202771424)"]),
    ("frank", 1_000_000, (0.1, 0.5, 0.9), ["(1.3259442215040687, 0.004756365876959796)",
                                           "(0.4799204921756743, 0.0005465615088079067)",
                                           "(0.3682230687163411, 0.00034094850010534607)"]),
]


@pytest.mark.parametrize("law, n_mc, alpha, want", ORACLE_BITS,
                         ids=[f"{row[0]}-{row[1]}-{len(row[3])}" for row in ORACLE_BITS])
def test_oracle_bits(law, n_mc, alpha, want):
    i = ORACLE_LAW_INDEX[law]
    got = ccte_true_oracle(ORACLE_LAWS[i], alpha, n_mc, RngStream(21, i))
    assert [repr(pair) for pair in ([got] if np.ndim(alpha) == 0 else got)] == want


class TestTrueOracle:
    def test_gaussian_alpha_half(self):
        # E[|X|^2 given |X|^2 >= t] = t + 2 for chi-square(2); t = 1 here
        pop = gaussian_population(std_model())
        value, se = ccte_true_oracle(pop, 0.5, 1_000_000, RngStream(41, 0))
        assert abs(value - 3.0) < 3.0 * se
        assert 0.0 < se < 0.01

    def test_gaussian_alpha_fifth(self):
        # t = 4, so the truth is 6
        pop = gaussian_population(std_model())
        value, se = ccte_true_oracle(pop, 0.2, 1_000_000, RngStream(42, 0))
        assert abs(value - 6.0) < 3.0 * se

    def test_no_mass(self):
        pop = gaussian_population(std_model())
        with pytest.raises(NoMass):
            ccte_true_oracle(pop, 1e-4, 100_000, RngStream(43, 0))

    def test_min_mc(self):
        pop = gaussian_population(std_model())
        with pytest.raises(DomainError):
            ccte_true_oracle(pop, 0.5, 99_999, RngStream(0))

    def test_alpha_validation(self):
        pop = gaussian_population(std_model())
        with pytest.raises(DomainError):
            ccte_true_oracle(pop, 1.0, 100_000, RngStream(0))

    def test_call_memory(self):
        # one batch's 2-d columns are 4 MiB.  Drawn into buffers allocated
        # once per call, a 1e6-draw call peaked at 10.4 MiB; with fresh
        # arrays for every batch, at 19.2 MiB
        pop = gaussian_population(std_model())
        ccte_true_oracle(pop, 0.5, 100_000, RngStream(0))
        tracemalloc.start()
        try:
            ccte_true_oracle(pop, 0.5, 1_000_000, RngStream(51, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (2 * 8 * BATCH_ROWS)

    def test_frank_call_memory(self):
        # the Gaussian bound: the Frank draw forms V and its quantiles CHUNK
        # columns at a time.  Over whole batches a call peaked at 17.0 MiB
        ccte_true_oracle(FRANK_CFG, 0.5, 100_000, RngStream(0))
        peak = traced_peak(lambda: ccte_true_oracle(FRANK_CFG, 0.5, 1_000_000, RngStream(51, 0)))
        assert peak < 3 * (2 * 8 * BATCH_ROWS)

    def test_deterministic(self):
        pop = gaussian_population(std_model())
        a = ccte_true_oracle(pop, 0.5, 100_000, RngStream(44, 9))
        b = ccte_true_oracle(pop, 0.5, 100_000, RngStream(44, 9))
        assert a == b

    @pytest.mark.parametrize("population", ["gaussian", "frank"])
    def test_levels_share_one_pass(self, population):
        # more draws than one internal batch; every level of the shared
        # pass equals the one-level call on the same stream, bit for bit
        if population == "gaussian":
            pop = gaussian_population(DepthModel([0.5, -1.0], build_spd([[2.0, 0.6], [0.6, 1.0]])))
        else:
            pop = FRANK_CFG
        levels = (0.1, 0.5, 0.9)
        shared = ccte_true_oracle(pop, levels, 300_000, RngStream(49, 1))
        assert len(shared) == len(levels)
        for alpha, pair in zip(levels, shared):
            assert pair == ccte_true_oracle(pop, alpha, 300_000, RngStream(49, 1))

    def test_level_sequence_validation(self):
        pop = gaussian_population(std_model())
        for bad in ((), (0.5, 1.0), [[0.5]]):
            with pytest.raises(DomainError):
                ccte_true_oracle(pop, bad, 100_000, RngStream(0))
        with pytest.raises(NoMass):
            ccte_true_oracle(pop, (0.5, 1e-4), 100_000, RngStream(43, 0))

    def test_gaussian_population_wrapper(self):
        # the law of the model: its exact model has the model's mu and
        # Cholesky factor bits, and it draws the model's points
        model = DepthModel([0.5, -1.0], build_spd([[2.0, 0.6], [0.6, 1.0]]))
        law = gaussian_population(model)
        assert isinstance(law, GaussianConfig)
        assert np.array_equal(law.exact_model.mu, model.mu)
        assert np.array_equal(law.exact_model.sigma.chol, model.sigma.chol)
        cols = law.draw(50, [RngStream(40, 0)])
        assert cols.shape == (1, 2, 50)
        assert np.array_equal(cols[0].T, sample_gaussian(50, model, RngStream(40, 0)).points)

    def test_frank_self_consistency(self):
        # the library's two Frank truths agree: the exact quadrature lies
        # within 4 SE of an independent 1e7-draw oracle at every level
        levels = (0.1, 0.5, 0.9)
        oracle = ccte_true_oracle(FRANK_CFG, levels, 10_000_000, RngStream(45, 2))
        for exact, (value, se) in zip(FRANK_CFG.exact_truth(levels), oracle):
            assert abs(value - exact) <= 4.0 * se

    @given(d=st.sampled_from([1, 2, 3, 5]), seed=st.integers(0, 2**32 - 1),
           alpha=st.floats(0.005, 0.995))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_gaussian_closed_form(self, d, seed, alpha):
        # X = mu + L z lies in the region where |z|^2 > r^2 = 1/alpha - 1, so
        # E[|X|^2 | region] = |mu|^2 + tr(Sigma) P(chi2_{d+2} > r^2) / P(chi2_d > r^2)
        n_mc = 200_000
        r2 = 1.0 / alpha - 1.0
        p_in = stats.chi2.sf(r2, d)
        # with fewer expected hits the delta-method standard error breaks down
        assume(n_mc * p_in >= 1000)
        r = np.random.default_rng(seed)
        mu = 2.0 * r.normal(size=d)
        a = r.normal(size=(d, d))
        sigma = a @ a.T + 0.1 * np.eye(d)
        sigma = 0.5 * (sigma + sigma.T)
        law = gaussian_population(DepthModel(mu, build_spd(sigma)))
        (truth,) = law.exact_truth([alpha])
        value, se = ccte_true_oracle(law, alpha, n_mc, RngStream(seed, 50))
        assert abs(value - truth) <= 4.0 * se


def frank_cov_hoeffding(theta):
    """Cov of the Frank-coupled standard Gumbels by Hoeffding's identity,
    the integral of C(F(s), F(t)) - F(s) F(t) over the plane."""

    def integrand(t, s):
        u, v = math.exp(-math.exp(-s)), math.exp(-math.exp(-t))
        c = -math.log1p(math.expm1(-theta * u) * math.expm1(-theta * v) / math.expm1(-theta))
        return c / theta - u * v

    return dblquad(integrand, -5.0, 40.0, -5.0, 40.0, epsabs=1e-13, epsrel=1e-11)[0]


def frank_law(theta):
    return FrankGumbelConfig(theta, FRANK_CFG.marg1, FRANK_CFG.marg2)


def correlation(model):
    s = model.sigma.entries
    return s[0, 1] / math.sqrt(s[0, 0] * s[1, 1])


# repr of the exact model's covariance, recorded before the model's g(V)
# grid was formed in blocks of rows, +-30 re-recorded for the one-form Frank
# kernel (+-1e3 and +-1e6 take its log-space fix-up).  Bit signature: numpy
# 2.4.6; dispatch features X86_V3, X86_V4, AVX512_ICL and AVX512_SPR on;
# OpenBLAS core SkylakeX.
FRANK_COV_BITS = {
    5.0: "0.0588438522211025",
    -5.0: "-0.056433480379525544",
    30.0: "0.09576119795345722",
    -30.0: "-0.08709282194178941",
    300.0: "0.1021705726892962",
    -300.0: "-0.09085433013370932",
    1e3: "0.10262064838682979",
    -1e3: "-0.09102646564259963",
    1e6: "0.10280819559939285",
    -1e6: "-0.09108117295229563",
}


class TestFrankExactModel:
    @pytest.mark.parametrize("theta", sorted(FRANK_COV_BITS))
    def test_covariance_bits(self, theta):
        assert repr(float(frank_law(theta).exact_model.sigma.entries[0, 1])) == (
            FRANK_COV_BITS[theta])

    def test_construction_memory(self):
        # the 513 x 513 grid of g(V) is 2 MiB; formed whole, the law's
        # construction peaked at 6.8 MiB
        assert traced_peak(lambda: frank_law(5.0)) < 4 * 2**20

    def test_matches_quadrature_constants(self):
        model = FRANK_CFG.exact_model
        assert tuple(model.mu) == FRANK_MEANS
        assert model.sigma.entries[0, 0] == model.sigma.entries[1, 1] == FRANK_VAR
        assert model.sigma.entries[0, 1] == pytest.approx(FRANK_COV, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("theta", [-5.0, 0.5, 5.0])
    def test_matches_hoeffding(self, theta):
        beta = FRANK_CFG.marg1.beta * FRANK_CFG.marg2.beta
        cov = frank_law(theta).exact_model.sigma.entries[0, 1]
        assert cov == pytest.approx(beta * frank_cov_hoeffding(theta), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize(
        "theta", [1e-9, -1e-9, 1e-7, 30.0, -30.0, 300.0, -300.0, 1e3, -1e3, 1e6, -1e6])
    def test_finite_spd_at_extremes(self, theta):
        model = frank_law(theta).exact_model
        assert np.all(np.isfinite(model.mu))
        assert np.all(np.isfinite(model.sigma.entries))
        assert np.all(np.linalg.eigvalsh(model.sigma.entries) > 0.0)
        assert abs(correlation(model)) < 1.0
        if abs(theta) < INDEPENDENCE_THETA:
            assert model.sigma.entries[0, 1] == 0.0
        else:
            assert np.sign(model.sigma.entries[0, 1]) == np.sign(theta)

    def test_correlation_increases_with_theta(self):
        magnitudes = 10.0 ** np.arange(-8.0, 6.01, 0.5)
        thetas = np.concatenate([-magnitudes[::-1], magnitudes])
        rhos = [correlation(frank_law(float(t)).exact_model) for t in thetas]
        assert np.all(np.diff(rhos) >= 0.0)
        assert rhos[0] < -0.88 and rhos[-1] > 0.999

    def test_extreme_scale_is_a_config_error(self):
        for beta in (1e-151, 1e155):
            with pytest.raises(ConfigError, match="marginals: "):
                FrankGumbelConfig(5.0, GumbelMarginal(0.0, beta), FRANK_CFG.marg2)


# repr of the Frank truths at TRUTH_BITS_LEVELS, recorded before the
# quadrature took its rays in chunks ("NoMass" where it would be raised), +-30
# re-recorded for the one-form Frank kernel.  Bit signature: numpy 2.4.6;
# dispatch features X86_V3, X86_V4, AVX512_ICL and AVX512_SPR on; OpenBLAS
# core SkylakeX.
TRUTH_BITS_LEVELS = (0.05, 0.1, 0.5, 0.9, 0.999)
FRANK_TRUTH_BITS = {
    -100.0: ["2.08130476685217", "1.5042846820259108", "0.6645811527785496",
             "0.35298502550989413", "0.3529600868789321"],
    -30.0: ["2.0235317702510227", "1.4442221186716986", "0.5933475304674993",
            "0.3582623410006182", "0.35298501504239876"],
    -5.0: ["2.332468620717482", "1.423603470999216", "0.48056537690102763",
           "0.36621800068730676", "0.3530778595656661"],
    0.5: ["2.559896482122355", "1.4175928143758232", "0.4657245890143412",
          "0.36519139367690806", "0.3530699210491109"],
    5.0: ["2.2093360867951137", "1.312742222446981", "0.4790220517374423",
          "0.36768391800084965", "0.35309336949930914"],
    30.0: ["1.8666307469286145", "1.3948966713101718", "0.582386062995179",
           "0.38475755837339487", "0.3532576541874545"],
    100.0: ["2.1783685098958068", "1.6885945318546784", "0.6449885417021877",
            "0.4028166247847301", "0.3534914971544325"],
}


class TestExactTruth:
    @pytest.mark.parametrize("theta", sorted(FRANK_TRUTH_BITS))
    def test_frank_truth_bits(self, theta):
        law = frank_law(theta)
        got = []
        for alpha in TRUTH_BITS_LEVELS:
            try:
                got.append(repr(law.exact_truth([alpha])[0]))
            except NoMass:
                got.append("NoMass")
        assert got == FRANK_TRUTH_BITS[theta]

    def test_frank_truth_memory(self):
        # the widest grid, 2048 rays of 192 nodes, is 3 MiB per array; over
        # every ray at once a call peaked at 39.6 MiB
        law = frank_law(100.0)
        assert traced_peak(lambda: law.exact_truth([0.1, 0.5])) < 4 * 2**20

    @pytest.mark.parametrize("theta", [-100.0, -30.0, -5.0, 0.5, 5.0, 30.0, 100.0])
    def test_frank_resolution(self, theta, monkeypatch):
        # a grid twice as fine in the angle and the radius changes nothing
        law = frank_law(theta)
        levels = [0.1, 0.5, 0.9]
        shipped = law.exact_truth(levels)
        fine = tuple((top, 2 * angles, 2 * panels) for top, angles, panels in _FRANK_TRUTH_GRIDS)
        monkeypatch.setattr(sampling, "_FRANK_TRUTH_GRIDS", fine)
        assert shipped == pytest.approx(law.exact_truth(levels), rel=1e-9, abs=0.0)

    def test_frank_reference_values(self):
        truths = FRANK_CFG.exact_truth([0.1, 0.5, 0.9])
        assert [round(t, 6) for t in truths] == [1.312742, 0.479022, 0.367684]

    def test_frank_independence_limit(self):
        # below INDEPENDENCE_THETA the sampler and the model use the
        # independence copula; the truth joins it continuously
        levels = [0.1, 0.5, 0.9]
        limit = frank_law(INDEPENDENCE_THETA / 2).exact_truth(levels)
        assert frank_law(-INDEPENDENCE_THETA / 2).exact_truth(levels) == limit
        near = frank_law(2 * INDEPENDENCE_THETA).exact_truth(levels)
        assert near == pytest.approx(limit, rel=1e-9, abs=0.0)

    def test_gaussian_closed_form_values(self):
        # d = 2, Sigma = I: 1 + 1/alpha; d = 1: E[z^2 | |z| > r] = 1 + r phi(r) / P(z > r)
        assert gaussian_population(std_model()).exact_truth([0.1, 0.5, 0.2]) == pytest.approx(
            [11.0, 3.0, 6.0], rel=1e-12, abs=0.0)
        r = 2.0
        tail = 0.5 * math.erfc(r / math.sqrt(2.0))
        expect = 1.0 + r * math.exp(-r * r / 2.0) / math.sqrt(2.0 * math.pi) / tail
        (truth,) = gaussian_population(std_model(1)).exact_truth([1.0 / (1.0 + r * r)])
        assert truth == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_pinned_gaussian_values(self):
        # the law of the pinned Gaussian study; at 0.2 the 40-digit value is
        # 12.6045684071807487...
        law = GaussianConfig(mu=(0.5, -1.0, 2.0), sigma=(
            (2.0, 0.3, 0.1), (0.3, 1.0, 0.2), (0.1, 0.2, 0.5)))
        assert list(map(repr, law.exact_truth([0.2, 0.5]))) == [
            "12.604568407180748", "9.454645214714843"]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 10, 51])
    def test_gaussian_ratio_matches_chdtrc(self, d):
        # identity covariance: the truth is d P(chi2_{d+2} > x) / P(chi2_d > x);
        # past the grid, 1/alpha - 1 rounds to 1/2**52 and overflows
        law = gaussian_population(std_model(d))
        for alpha in [*np.geomspace(1e-12, 0.999, 120), 1.0 - 2.0**-53, 1e-300, 1e-310, 5e-324]:
            x = 1.0 / alpha - 1.0
            try:
                (truth,) = law.exact_truth([alpha])
            except NoMass:
                truth = None
            if special.chdtrc(d, x) > 0.0:
                ratio = special.chdtrc(d + 2, x) / special.chdtrc(d, x)
                assert truth == pytest.approx(d * ratio, rel=1e-12, abs=0.0)
            else:
                assert truth is None or math.isfinite(truth)

    def test_no_mass(self):
        with pytest.raises(NoMass):
            gaussian_population(std_model()).exact_truth([0.5, 1e-6])
        with pytest.raises(NoMass):
            FRANK_CFG.exact_truth([0.5, 1e-3])

    def test_levels_checked(self):
        for law in (gaussian_population(std_model()), FRANK_CFG):
            for bad in (0.0, 1.0, "0.5"):
                with pytest.raises(DomainError):
                    law.exact_truth([bad])

    @pytest.mark.parametrize("theta", [100.5, -100.5, 1e6])
    def test_frank_theta_beyond_the_grids(self, theta):
        with pytest.raises(DomainError, match="^theta: "):
            frank_law(theta).exact_truth([0.5])


class TestPopulationModel:
    def test_gaussian_recovery(self):
        true = DepthModel(np.array([1.0, -2.0]), build_spd([[2.0, 0.7], [0.7, 1.5]]))
        draw = lambda n, rng: sample_gaussian(n, true, rng).points
        model = estimate_population_model(draw, 200_000, RngStream(46, 0))
        assert np.allclose(model.mu, true.mu, atol=0.02)
        assert np.allclose(model.sigma.entries, true.sigma.entries, atol=0.05)

    def test_frank_moments_match_quadrature(self):
        draw = lambda n, rng: sample_risk_factors(n, FRANK_CFG, rng).points
        model = estimate_population_model(draw, 1_000_000, RngStream(47, 0))
        assert abs(model.mu[0] - FRANK_MEANS[0]) < 1e-3
        assert abs(model.mu[1] - FRANK_MEANS[1]) < 1e-3
        assert abs(model.sigma.entries[0, 0] - FRANK_VAR) < 1e-3
        assert abs(model.sigma.entries[1, 1] - FRANK_VAR) < 1e-3
        assert abs(model.sigma.entries[0, 1] - FRANK_COV) < 7e-4

    def test_min_mc(self):
        draw = lambda n, rng: sample_gaussian(n, std_model(), rng).points
        with pytest.raises(DomainError):
            estimate_population_model(draw, 1, RngStream(0))

    def test_batched_equals_single_pass_statistically(self):
        # more draws than one internal batch: still deterministic
        draw = lambda n, rng: sample_gaussian(n, std_model(), rng).points
        a = estimate_population_model(draw, 1_200_000, RngStream(48, 0))
        b = estimate_population_model(draw, 1_200_000, RngStream(48, 0))
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.sigma.entries, b.sigma.entries)


class TestConsistency:
    def test_error_decays_with_n(self):
        # the plug-in estimate closes in on the closed-form truth 3.0 as
        # both sample sizes grow
        n_values = (250, 1000, 4000)
        medians = []
        for n in n_values:
            errs = []
            for seed in range(20):
                stream = RngStream(seed, mix64(44, n))
                pts = sample_gaussian(2 * n, std_model(), stream)
                level = Sample(pts.points[:n])
                cost = attach_costs(Sample(pts.points[n:]), 0.005, stream)
                est = ccte_hat(level, cost, 0.5)
                errs.append(abs(est.value - 3.0))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[-1]
        logs = np.log(np.array(n_values))
        slope = np.polyfit(logs, np.log(medians), 1)[0]
        assert slope <= -0.25
