"""Depth values, axioms, plug-in fitting, gradient, sup-norm comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrisk import (
    ConfigError,
    DegenerateSample,
    DepthModel,
    DimensionMismatch,
    DomainError,
    RngStream,
    Sample,
    build_spd,
    fit_model,
    mahalanobis_sq,
    mhd,
    mhd_gradient,
    mix64,
    probe_points,
    sup_norm_distance,
)
from depthrisk import depth
from depthrisk.depth import _far_offsets, fit_columns


def std_model(d=2):
    return DepthModel(np.zeros(d), build_spd(np.eye(d)))


def random_model(rng, d):
    r = rng.normal(size=(d, d))
    return DepthModel(rng.normal(size=d), build_spd(r @ r.T + 0.1 * np.eye(d)))


class TestMhdValues:
    def test_peak_at_center(self):
        assert mhd(np.zeros(2), std_model()) == 1.0

    def test_unit_distance(self):
        assert mhd(np.array([1.0, 0.0]), std_model()) == 0.5

    def test_three_four_five(self):
        assert mhd(np.array([3.0, 4.0]), std_model()) == pytest.approx(
            1.0 / 26.0, rel=1e-15
        )
        assert mahalanobis_sq(np.array([3.0, 4.0]), std_model()) == 25.0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, 3)
        pts = rng.normal(size=(40, 3))
        batch = mhd(pts, model)
        assert batch.shape == (40,)
        # blocked BLAS solves may reorder across right-hand sides, so the
        # agreement contract is relative, not bitwise
        single = np.array([mhd(p, model) for p in pts])
        assert np.allclose(batch, single, rtol=1e-13, atol=0.0)

    def test_scalar_type(self):
        assert isinstance(mhd(np.zeros(2), std_model()), float)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mhd(np.zeros(3), std_model(2))


class TestDepthAxioms:
    """The four standard depth-function properties."""

    def test_affine_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = rng.integers(1, 4)
            model = random_model(rng, d)
            x = model.mu + rng.normal(size=d) * 3.0
            amat = rng.normal(size=(d, d)) + np.eye(d) * 2.0
            shift = rng.normal(size=d)
            mapped = DepthModel(
                amat @ model.mu + shift,
                build_spd(amat @ model.sigma.entries @ amat.T),
            )
            before = mhd(x, model)
            after = mhd(amat @ x + shift, mapped)
            assert abs(after - before) < 1e-9

    def test_maximality_at_center(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            model = random_model(rng, 2)
            assert mhd(model.mu, model) == 1.0
            x = model.mu + rng.normal(size=2)
            assert mhd(x, model) < 1.0 or np.allclose(x, model.mu)

    def test_monotone_along_rays(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, 2)
        direction = np.array([0.3, -0.7])
        ts = np.linspace(0.0, 20.0, 200)
        vals = mhd(model.mu + ts[:, None] * direction, model)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(np.diff(vals[1:]) < 0.0)

    def test_vanishing_at_infinity(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            model = random_model(rng, 3)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            assert mhd(model.mu + 1e6 * u, model) < 1e-9

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(23)
        model = random_model(rng, 2)
        for _ in range(50):
            x = model.mu + rng.normal(size=2) * 2.0
            mirrored = 2.0 * model.mu - x
            assert mhd(x, model) == pytest.approx(mhd(mirrored, model), rel=1e-12)


class TestGradient:
    def test_zero_at_center(self):
        g = mhd_gradient(np.zeros(2), std_model())
        assert np.array_equal(g, np.zeros(2))

    def test_hand_value(self):
        # at (1, 0) under the standard model: -2 * (1/2)^2 * (1, 0)
        g = mhd_gradient(np.array([1.0, 0.0]), std_model())
        assert g == pytest.approx([-0.5, 0.0], abs=1e-15)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        checked = 0
        while checked < 200:
            d = int(rng.integers(1, 4))
            model = random_model(rng, d)
            x = model.mu + rng.normal(size=d) * 2.0
            if np.linalg.norm(x - model.mu) < 1e-3:
                continue
            g = mhd_gradient(x, model)
            fd = np.empty(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[j] = (mhd(x + e, model) - mhd(x - e, model)) / (2.0 * h)
            assert np.linalg.norm(g - fd) < 1e-6 * max(1.0, np.linalg.norm(g))
            checked += 1

    def test_points_uphill(self):
        # gradient at x points back toward the center: moving along it
        # raises the depth
        rng = np.random.default_rng(37)
        model = random_model(rng, 2)
        for _ in range(50):
            x = model.mu + rng.normal(size=2) * 2.0
            g = mhd_gradient(x, model)
            if np.linalg.norm(g) < 1e-12:
                continue
            step = 1e-4 * g / np.linalg.norm(g)
            assert mhd(x + step, model) > mhd(x, model)

    def test_batch_shape(self):
        g = mhd_gradient(np.zeros((5, 2)), std_model())
        assert g.shape == (5, 2)


class TestFitModel:
    def test_too_few_points(self):
        with pytest.raises(DegenerateSample):
            fit_model(Sample([[0.0, 0.0], [1.0, 1.0]]))

    def test_collinear_points(self):
        pts = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        with pytest.raises(DegenerateSample):
            fit_model(Sample(pts))

    def test_unit_square(self):
        s = Sample([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = fit_model(s)
        assert np.array_equal(model.mu, [0.5, 0.5])
        third = 1.0 / 3.0
        assert np.array_equal(model.sigma.entries, [[third, 0.0], [0.0, third]])

    def test_recovers_population(self):
        true = DepthModel(
            np.array([1.0, -1.0]), build_spd([[2.0, 0.5], [0.5, 1.0]])
        )
        from depthrisk import sample_gaussian

        s = sample_gaussian(100_000, true, RngStream(55, 0))
        fitted = fit_model(s)
        assert np.allclose(fitted.mu, true.mu, atol=0.02)
        assert np.allclose(fitted.sigma.entries, true.sigma.entries, atol=0.05)

    def test_covariance_is_factored_once(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(1) or cholesky(a))
        pts = 1.0 + RngStream(9, 1).normals(3 * 40).reshape(40, 3)
        model = fit_model(Sample(pts))
        assert len(calls) == 1
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        # the model is the one the covariance gives when factored on its own
        _, cov, _ = fit_columns(pts.T[None])
        own = build_spd(cov[0])
        assert np.array_equal(model.sigma.entries, own.entries)
        assert np.array_equal(model.sigma.chol, own.chol)

    def test_plug_in_depth_close_to_population(self):
        true = std_model()
        from depthrisk import sample_gaussian

        s = sample_gaussian(100_000, true, RngStream(56, 0))
        fitted = fit_model(s)
        x = np.array([1.0, 1.0])
        assert mhd(x, fitted) == pytest.approx(mhd(x, true), abs=0.01)


@given(
    d=st.sampled_from([1, 2, 3, 5]),
    extra=st.integers(0, 40),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**63),
)
@settings(max_examples=60, deadline=None)
def test_fit_model_is_the_one_sample_fitting_core(d, extra, k, seed):
    n = d + 1 + extra
    stack = 1.0 + 3.0 * RngStream(seed, 0).normals(k * d * n).reshape(k, d, n)
    mu, cov, low = fit_columns(stack)
    for r in range(k):
        one_mu, one_cov, one_low = fit_columns(stack[r : r + 1])
        assert np.array_equal(one_mu[0], mu[r])
        assert np.array_equal(one_cov[0], cov[r])
        assert np.array_equal(one_low[0], low[r])
        sample = Sample(stack[r].T)
        core_mu, _, core_low = fit_columns(sample.points.T[None])
        model = fit_model(sample)
        assert np.array_equal(model.mu, core_mu[0])
        assert np.array_equal(model.sigma.chol, core_low[0])


class TestDepthModel:
    def test_validation(self):
        with pytest.raises(DimensionMismatch):
            DepthModel(np.zeros((2, 2)), build_spd(np.eye(2)))
        with pytest.raises(DimensionMismatch):
            DepthModel(np.zeros(3), build_spd(np.eye(2)))

    def test_mu_read_only(self):
        m = std_model()
        with pytest.raises(ValueError):
            m.mu[0] = 1.0
        # the model keeps a copy: the caller's array stays writable
        loc = np.zeros(2)
        DepthModel(loc, build_spd(np.eye(2)))
        loc[0] = 1.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(61)
        model = random_model(rng, 3)
        back = DepthModel.from_json(model.to_json())
        assert np.array_equal(back.mu, model.mu)
        assert np.array_equal(back.sigma.entries, model.sigma.entries)

    def test_json_missing_keys(self):
        with pytest.raises(ConfigError, match="^sigma: missing$"):
            DepthModel.from_json({"mu": [0.0, 0.0]})
        with pytest.raises(ConfigError, match="^mu: missing$"):
            DepthModel.from_json({"sigma": [[1.0]]})

    def test_json_unknown_key(self):
        with pytest.raises(ConfigError, match="^sgima: unknown key$"):
            DepthModel.from_json({"mu": [0.0], "sigma": [[1.0]], "sgima": 1})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_mu(self, bad):
        with pytest.raises(DomainError, match="^mu must be finite"):
            DepthModel(np.array([bad, 0.0]), build_spd(np.eye(2)))
        with pytest.raises(DomainError, match="^mu must be finite"):
            DepthModel.from_json({"mu": [bad, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]})


class TestSupNorm:
    def test_identical_models(self):
        m = std_model()
        assert sup_norm_distance(m, m) == 0.0

    def test_one_dim_scale_gap(self, monkeypatch):
        # sup over x of |1/(1+x^2) - 1/(1+x^2/4)| is 1/3, attained at
        # |x| = sqrt(2); a fine grid gets within its quadratic resolution
        monkeypatch.setitem(depth.PROBE_AXIS_POINTS, 1, 4001)
        a = DepthModel(np.zeros(1), build_spd([[1.0]]))
        b = DepthModel(np.zeros(1), build_spd([[4.0]]))
        v = sup_norm_distance(a, b)
        assert v <= 1.0 / 3.0 + 1e-12
        assert v > 1.0 / 3.0 - 1e-5

    def test_translation_monotone(self):
        base = std_model()
        gaps = []
        for c in (0.5, 1.0, 2.0, 4.0):
            shifted = DepthModel(np.array([c, 0.0]), build_spd(np.eye(2)))
            gaps.append(sup_norm_distance(base, shifted))
        assert all(x < y for x, y in zip(gaps, gaps[1:]))
        assert all(0.0 < g < 1.0 for g in gaps)

    def test_symmetry(self):
        rng = np.random.default_rng(67)
        a = random_model(rng, 2)
        b = random_model(rng, 2)
        assert sup_norm_distance(a, b) == sup_norm_distance(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sup_norm_distance(std_model(1), std_model(2))


class TestProbeGrid:
    def test_axis_count_defaults(self, monkeypatch):
        for d, k in ((1, 201), (2, 201), (3, 41), (4, 9)):
            grid = probe_points(std_model(d), std_model(d))[: k**d]
            for i in range(d):
                assert np.unique(grid[:, i]).size == k
        monkeypatch.setitem(depth.PROBE_AXIS_POINTS, 2, 7)
        grid = probe_points(std_model(), std_model())[:49]
        assert np.unique(grid[:, 0]).size == 7
        assert np.unique(grid[:, 1]).size == 7

    def test_point_count(self):
        # k points per axis: 201 for d <= 2, 41 for d = 3, 9 beyond
        for d, k in ((1, 201), (2, 201), (3, 41), (4, 9)):
            pts = probe_points(std_model(d), std_model(d))
            assert pts.shape == (k**d + 10_000, d)

    def test_deterministic(self):
        a = probe_points(std_model(), std_model())
        b = probe_points(std_model(), std_model())
        assert np.array_equal(a, b)

    def test_far_points_keep_the_v0_bits(self):
        a = std_model()
        b = DepthModel(np.array([1.0, -2.0]), build_spd([[2.0, 0.4], [0.4, 0.5]]))
        pts = probe_points(a, b)
        grid = pts[:201**2]
        # the far points as they were drawn on every call, before the cache
        stream = RngStream(0x5EEDFA11, mix64(2, 10_000))
        z = stream.normals(20_000).reshape(10_000, 2)
        norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        radii = 1000.0 * stream.uniforms(10_000)
        center = 0.5 * (grid.min(axis=0) + grid.max(axis=0))
        assert np.array_equal(pts[201**2:], center + (radii / norms)[:, None] * z)

    def test_far_offsets_drawn_once_and_read_only(self):
        first = _far_offsets(3)
        assert _far_offsets(3) is first
        assert not first.flags.writeable

    def test_grid_covers_both_models(self):
        a = std_model()
        b = DepthModel(np.array([10.0, 0.0]), build_spd(np.eye(2)))
        pts = probe_points(a, b)[:201**2]
        assert pts[:, 0].min() <= a.mu[0] - 5.0
        assert pts[:, 0].max() >= b.mu[0] + 5.0


@given(
    x=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2),
    scale=st.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_depth_always_in_unit_interval(x, scale):
    model = DepthModel(np.zeros(2), build_spd(scale * np.eye(2)))
    v = mhd(np.array(x), model)
    assert 0.0 < v <= 1.0


@given(
    t=st.floats(0.0, 100.0),
    u=st.floats(0.0, 2.0 * np.pi),
)
@settings(max_examples=60, deadline=None)
def test_depth_radial_profile_matches_closed_form(t, u):
    model = std_model()
    x = t * np.array([np.cos(u), np.sin(u)])
    v = mhd(x, model)
    expect = 1.0 / (1.0 + x[0] ** 2 + x[1] ** 2)
    assert v == pytest.approx(expect, rel=1e-12)
