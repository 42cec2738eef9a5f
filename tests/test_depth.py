"""Depth values, axioms, plug-in fitting, gradient, sup-norm comparison."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

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
    sample_gaussian,
    sup_norm_distance,
)
from depthrisk.depth import _sup_norms, fit_columns


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

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_two_triangular_solves(self, d):
        # Sigma^{-1} (x - mu) by scipy's forward and back substitutions
        rng = np.random.default_rng(40 + d)
        model = random_model(rng, d)
        x = model.mu + 3.0 * rng.normal(size=(500, d))
        low = model.sigma.chol
        full = solve_triangular(low.T, solve_triangular(low, (x - model.mu).T, lower=True))
        want = (-2.0 * mhd(x, model) ** 2)[:, None] * full.T
        got = mhd_gradient(x, model)
        assert np.all(np.abs(got - want) <= 1e-10 * np.linalg.norm(want, axis=1, keepdims=True))


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
        _, cov, _ = fit_columns(pts.T.copy()[None])
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
        # a sample in either memory layout has the block's fit bits
        for order in "CF":
            model = fit_model(Sample(stack[r].T.copy(order=order)))
            assert np.array_equal(model.mu, mu[r])
            assert np.array_equal(model.sigma.chol, low[r])


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

    @given(d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip_keeps_the_bits(self, d, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, d)
        model = DepthModel(model.mu * 10.0 ** rng.integers(-8, 8, size=d), model.sigma)
        back = DepthModel.from_json(json.loads(json.dumps(model.to_json())))
        assert np.array_equal(back.mu.view(np.uint64), model.mu.view(np.uint64))
        assert np.array_equal(
            back.sigma.entries.view(np.uint64), model.sigma.entries.view(np.uint64)
        )

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
        with pytest.raises(DomainError, match="^mu must be finite numbers$"):
            DepthModel(np.array([bad, 0.0]), build_spd(np.eye(2)))
        with pytest.raises(DomainError, match="^mu must be finite numbers$"):
            DepthModel.from_json({"mu": [bad, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]})


def multistart_sup(a, b, rng, starts=4):
    """The sup of |mhd_a - mhd_b| by BFGS with the analytic gradient, from
    both centers and from random points around them."""
    best = max(abs(1.0 - mhd(a.mu, b)), abs(mhd(b.mu, a) - 1.0))
    for sign in (1.0, -1.0):
        def f(x):
            return -sign * (mhd(x, a) - mhd(x, b))

        def jac(x):
            return -sign * (mhd_gradient(x, a) - mhd_gradient(x, b))

        for k in range(starts):
            center = (a, b)[k % 2].mu
            x0 = center + (0.1, 1.0)[k // 2 % 2] * rng.normal(size=a.dim)
            res = minimize(f, x0, jac=jac, method="BFGS", options={"gtol": 1e-10})
            best = max(best, -float(res.fun))
    return best


def random_gaps(a, b, rng, n):
    """|mhd_a - mhd_b| at n random points around both centers, at radii up
    to 4 Mahalanobis units of each model."""
    rows = []
    for m in (a, b):
        z = rng.normal(size=(n // 2, m.dim))
        z *= (4.0 * rng.uniform(size=n // 2) / np.linalg.norm(z, axis=1))[:, None]
        rows.append(m.mu + z @ m.sigma.chol.T)
    pts = np.vstack(rows)
    return np.abs(mhd(pts, a) - mhd(pts, b))


class TestSupNorm:
    def test_identical_models(self):
        rng = np.random.default_rng(71)
        for m in (std_model(), *(random_model(rng, d) for d in (1, 2, 3, 5, 8))):
            assert sup_norm_distance(m, m) == 0.0

    def test_one_dim_scale_gap(self):
        # sup over x of |1/(1+x^2) - 1/(1+x^2/4)| is 1/3, attained at
        # |x| = sqrt(2): a concentric pair, so the hard-case ray carries it
        a = DepthModel(np.zeros(1), build_spd([[1.0]]))
        b = DepthModel(np.zeros(1), build_spd([[4.0]]))
        assert sup_norm_distance(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("sigma", [4.0 * np.eye(2), np.diag([4.0, 0.25])])
    def test_concentric_closed_forms(self, sigma):
        # against I the gap along an axis of variance 4 peaks at 1/3 (above),
        # and along an axis of variance 1/4 it dips to -1/3
        a = std_model()
        b = DepthModel(np.zeros(2), build_spd(sigma))
        assert sup_norm_distance(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

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
        for d in (1, 2, 3):
            a = random_model(rng, d)
            b = random_model(rng, d)
            assert sup_norm_distance(a, b) == sup_norm_distance(b, a)
        b = DepthModel(a.mu, build_spd(3.0 * a.sigma.entries))
        assert sup_norm_distance(a, b) == sup_norm_distance(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sup_norm_distance(std_model(1), std_model(2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_rows_are_the_pair_values(self, d):
        # concentric rows (the hard-case rays) mixed with general ones, each
        # row against the one-pair call, in both orders and against a model
        # shared by the whole block; thirteen pairs cross the first grid's
        # slices of five twice
        rng = np.random.default_rng(80 + d)
        a = [random_model(rng, d) for _ in range(13)]
        b = [random_model(rng, d) for _ in range(13)]
        for j in (1, 4, 7, 10):
            b[j] = DepthModel(a[j].mu, b[j].sigma)
        b[5] = a[5]
        b[12] = a[12]
        stack = lambda models: (np.stack([m.mu for m in models]),
                                np.stack([m.sigma.chol for m in models]))
        want = [sup_norm_distance(p, q) for p, q in zip(a, b)]
        assert _sup_norms(*stack(a), *stack(b)).tolist() == want
        assert _sup_norms(*stack(b), *stack(a)).tolist() == want
        shared = [sup_norm_distance(p, b[0]) for p in a]
        assert _sup_norms(*stack(a), *stack(b[:1])).tolist() == shared
        assert _sup_norms(*stack(b[:1]), *stack(a)).tolist() == shared

    def test_six_dimensions_beat_random_points(self):
        # sampled points fall short here: a 9-per-axis tensor grid reads 0.519
        rng = np.random.default_rng(73)
        a = random_model(rng, 6)
        b = random_model(rng, 6)
        v = sup_norm_distance(a, b)
        assert v >= random_gaps(a, b, rng, 100_000).max()


def bit_models(d, kind, seed):
    """A pair of models of dimension d: random, concentric (the hard-case
    rays) or a fit of 200 standard normal points against the standard
    model."""
    rng = np.random.default_rng(seed)
    if kind == "fit":
        return fit_model(sample_gaussian(200, std_model(d), RngStream(seed))), std_model(d)
    a, b = random_model(rng, d), random_model(rng, d)
    return (a, DepthModel(a.mu, b.sigma)) if kind == "concentric" else (a, b)


# the repr of each sup-norm as the (..., d)-innermost search gave it, the
# fits on samples of the half-angle Box-Muller; the last four fits move if
# |z|^2 is summed in plain coordinate order
SUP_NORM_BITS = [
    (1, "random", 23, "0.984204193571629"),
    (1, "concentric", 23, "0.3293391353201781"),
    (1, "fit", 23, "0.06182402634036199"),
    (2, "random", 23, "0.9298714564127173"),
    (2, "concentric", 23, "0.6793169347906513"),
    (2, "fit", 23, "0.033377417148550914"),
    (3, "random", 23, "0.9382077528587316"),
    (3, "concentric", 23, "0.7301902854867861"),
    (3, "fit", 23, "0.06004254614578275"),
    (4, "random", 23, "0.9597866982572275"),
    (4, "concentric", 23, "0.8251124801569283"),
    (4, "fit", 23, "0.106447078522932"),
    (8, "random", 23, "0.9855879168343178"),
    (8, "concentric", 23, "0.7320421947370388"),
    (8, "fit", 23, "0.21993698525844174"),
    (3, "fit", 47, "0.06973283484951032"),
    (4, "fit", 29, "0.07843124401860435"),
    (5, "fit", 42, "0.12966809520024347"),
    (7, "fit", 23, "0.11948048862095362"),
]


@pytest.mark.parametrize("d, kind, seed, want", SUP_NORM_BITS,
                         ids=[f"d{row[0]}-{row[1]}-{row[2]}" for row in SUP_NORM_BITS])
def test_sup_norm_bits(d, kind, seed, want):
    a, b = bit_models(d, kind, seed)
    assert repr(sup_norm_distance(a, b)) == want


@given(
    d=st.integers(1, 3),
    concentric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_sup_norm_is_the_optimizer_sup(d, concentric, seed):
    rng = np.random.default_rng(seed)
    a = random_model(rng, d)
    b = random_model(rng, d)
    if concentric:
        b = DepthModel(a.mu, b.sigma)
    v = sup_norm_distance(a, b)
    assert v == pytest.approx(multistart_sup(a, b, rng), rel=1e-9)
    floor = max(abs(1.0 - mhd(a.mu, b)), abs(mhd(b.mu, a) - 1.0),
                random_gaps(a, b, rng, 10_000).max())
    # every value is the gap at some point, computed in another frame
    assert v >= floor * (1.0 - 1e-12)


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
