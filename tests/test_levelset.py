"""Lower-set membership, boundary geometry, Hausdorff and symmetric difference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import depthrisk.levelset as levelset_module
from depthrisk import (
    ConfigError,
    ConvergenceConfig,
    DepthModel,
    DimensionMismatch,
    DomainError,
    ExperimentConfig,
    GaussianConfig,
    LevelSetSpec,
    RngStream,
    Sample,
    boundary_points,
    build_spd,
    ccte_hat,
    ccte_true_oracle,
    ccte_under_model,
    fit_model,
    gaussian_population,
    hausdorff_report,
    in_lower_set,
    mhd,
    mix64,
    radial_sym_diff_volume,
    run_convergence,
    sample_gaussian,
    sup_norm_distance,
    sym_diff_probability,
    sym_diff_volume,
)

# area of the lens formed by two unit disks at center distance 1/2, via
# 2 acos(d/2) - (d/2) sqrt(4 - d^2); the symmetric difference of the two
# complements is twice (disk area - lens)
LENS_OVERLAP = 2.0 * math.acos(0.25) - 0.25 * math.sqrt(3.75)
SYM_DIFF_SHIFTED_DISKS = 2.0 * (math.pi - LENS_OVERLAP)


def std_model(d=2):
    return DepthModel(np.zeros(d), build_spd(np.eye(d)))


def circle_spec(radius, center=(0.0, 0.0)):
    """Level set of the standard-normal depth whose boundary is the circle
    of the given radius: alpha = 1 / (1 + r^2)."""
    model = DepthModel(np.array(center, dtype=float), build_spd(np.eye(2)))
    return LevelSetSpec(model, 1.0 / (1.0 + radius * radius))


class TestLevelSetSpec:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_validation(self, alpha):
        with pytest.raises(DomainError):
            LevelSetSpec(std_model(), alpha)

    def test_radius_sq(self):
        assert LevelSetSpec(std_model(), 0.5).radius_sq == 1.0
        assert LevelSetSpec(std_model(), 0.2).radius_sq == 4.0

    def test_dim(self):
        assert LevelSetSpec(std_model(3), 0.5).dim == 3


def _cols():
    return RngStream(41, 0).normals(2 * 2 * 10).reshape(2, 2, 10)


def _costed():
    return Sample(_cols()[0].T, np.ones(10))


# every entry point that takes a level, with the error it raises for a bad one
LEVEL_ENTRY_POINTS = {
    "LevelSetSpec": (DomainError, lambda a: LevelSetSpec(std_model(), a)),
    "ccte_true_oracle": (DomainError, lambda a: ccte_true_oracle(
        gaussian_population(std_model()), a, 100_000, RngStream(1, 0))),
    "ccte_hat": (DomainError, lambda a: ccte_hat(Sample(_cols()[1].T), _costed(), a)),
    "ccte_under_model": (DomainError, lambda a: ccte_under_model(
        std_model(), _costed(), a, n1=10)),
    "ExperimentConfig": (ConfigError, lambda a: ExperimentConfig(
        data_cfg=GaussianConfig(mu=(0.0, 0.0), sigma=((1.0, 0.0), (0.0, 1.0))),
        n_values=(8,), alpha_values=(a,), replications=2)),
    "ConvergenceConfig": (ConfigError, lambda a: ConvergenceConfig(
        model=std_model(), n_values=(16,), seeds=1, alpha=a)),
}


class TestLevelCheck:
    @pytest.mark.parametrize("entry", sorted(LEVEL_ENTRY_POINTS))
    def test_string_level_rejected(self, entry):
        error, call = LEVEL_ENTRY_POINTS[entry]
        with pytest.raises(error, match="alpha"):
            call("0.5")

    @pytest.mark.parametrize("entry", sorted(LEVEL_ENTRY_POINTS))
    def test_numpy_real_level_accepted(self, entry):
        LEVEL_ENTRY_POINTS[entry][1](np.float32(0.5))


class TestMembership:
    def test_center_is_outside(self):
        # the lower set collects the outlying points, not the deep ones
        spec = LevelSetSpec(std_model(), 0.5)
        assert not in_lower_set(np.zeros(2), spec)

    def test_far_point_is_inside(self):
        spec = LevelSetSpec(std_model(), 0.5)
        assert in_lower_set(np.array([2.0, 0.0]), spec)

    def test_boundary_is_closed(self):
        # (1, 0) has depth exactly alpha = 0.5
        spec = LevelSetSpec(std_model(), 0.5)
        assert in_lower_set(np.array([1.0, 0.0]), spec)

    def test_batch(self):
        spec = LevelSetSpec(std_model(), 0.5)
        got = in_lower_set(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]), spec)
        assert got.dtype == bool
        assert list(got) == [False, True, True]

    def test_alpha_monotone(self):
        # smaller alpha keeps only deeper-tail points: L(a1) subset of L(a2)
        rng = RngStream(17, 0)
        pts = rng.normals(20_000).reshape(10_000, 2) * 2.0
        small = in_lower_set(pts, LevelSetSpec(std_model(), 0.2))
        large = in_lower_set(pts, LevelSetSpec(std_model(), 0.6))
        assert not np.any(small & ~large)


class TestBoundaryPoints:
    def test_depth_on_boundary(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = rng.normal(size=(2, 2))
            model = DepthModel(
                rng.normal(size=2), build_spd(r @ r.T + 0.2 * np.eye(2))
            )
            alpha = float(rng.uniform(0.05, 0.95))
            pts = boundary_points(LevelSetSpec(model, alpha), 128)
            assert np.max(np.abs(mhd(pts, model) - alpha)) < 1e-10

    def test_exact_radii(self):
        pts = boundary_points(LevelSetSpec(std_model(), 0.2), 256)
        radii = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        assert np.allclose(radii, 2.0, rtol=0, atol=1e-12)

    def test_min_count(self):
        with pytest.raises(DomainError):
            boundary_points(LevelSetSpec(std_model(), 0.5), 7)

    def test_count_and_dim(self):
        pts = boundary_points(LevelSetSpec(std_model(3), 0.5), 500)
        assert pts.shape == (500, 3)

    def test_one_dim_boundary(self):
        pts = boundary_points(LevelSetSpec(std_model(1), 0.5), 8)
        assert np.allclose(np.abs(pts), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d, m", [(1, 8), (2, 4096), (3, 500), (4, 64)])
    def test_directions_built_once_and_read_only(self, d, m):
        first = levelset_module._sphere_directions(d, m)
        assert levelset_module._sphere_directions(d, m) is first
        assert not first.flags.writeable
        assert first.shape == (m, d)


class TestHausdorff:
    def test_identical_specs(self):
        spec = LevelSetSpec(std_model(), 0.5)
        assert hausdorff_report(spec, spec, 512).distance == 0.0

    def test_concentric_circles(self):
        # radii 1 and 2, so the boundary gap is exactly 1 everywhere
        d = hausdorff_report(circle_spec(1.0), circle_spec(2.0), 4096).distance
        assert abs(d - 1.0) < 1e-10

    def test_translated_circles(self):
        # unit circles with centers 0.1 apart: distance exactly 0.1
        d = hausdorff_report(
            circle_spec(1.0), circle_spec(1.0, center=(0.1, 0.0)), 4096
        ).distance
        assert abs(d - 0.1) < 1e-10

    def test_coarse_oracle_agreement(self):
        # ellipse vs circle, against nearest points among 2**17 dense
        # boundary points of each side (within 1e-8 of the exact distance)
        a = LevelSetSpec(std_model(), 0.5)
        b = LevelSetSpec(
            DepthModel(np.zeros(2), build_spd([[2.0, 0.3], [0.3, 0.5]])), 0.4
        )
        got = hausdorff_report(a, b, 2048).distance
        dense_a = cKDTree(boundary_points(a, 2**17))
        dense_b = cKDTree(boundary_points(b, 2**17))
        brute = max(
            dense_b.query(boundary_points(a, 2048))[0].max(),
            dense_a.query(boundary_points(b, 2048))[0].max(),
        )
        assert got == pytest.approx(brute, rel=1e-7)
        assert got <= brute

    def test_symmetry(self):
        a = circle_spec(1.0)
        b = circle_spec(2.5, center=(0.3, -0.2))
        assert hausdorff_report(a, b, 1024).distance == hausdorff_report(b, a, 1024).distance

    def test_min_points(self):
        with pytest.raises(DomainError):
            hausdorff_report(circle_spec(1.0), circle_spec(2.0), 63).distance

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hausdorff_report(
                LevelSetSpec(std_model(2), 0.5), LevelSetSpec(std_model(3), 0.5), 256
            ).distance

    def test_resolution_tracks_m(self):
        a = circle_spec(1.0)
        b = circle_spec(2.0)
        coarse = hausdorff_report(a, b, 256).resolution
        fine = hausdorff_report(a, b, 4096).resolution
        # nearest-neighbor gap on the larger circle is about 2 pi 2 / m
        assert fine == pytest.approx(4.0 * math.pi / 4096, rel=0.01)
        assert coarse > fine


    def test_resolution_is_computed_once_on_request(self, monkeypatch):
        calls = []
        nn_gap = levelset_module._nn_gap
        monkeypatch.setattr(levelset_module, "_nn_gap", lambda p: calls.append(1) or nn_gap(p))
        report = hausdorff_report(circle_spec(1.0), circle_spec(2.0), 256)
        assert calls == []
        first = report.resolution
        assert report.resolution == first
        assert len(calls) == 2  # one gap per boundary sample, read once

    def test_convergence_study_never_computes_the_resolution(self, monkeypatch):
        def refuse(points):
            raise AssertionError("resolution computed")

        monkeypatch.setattr(levelset_module, "_nn_gap", refuse)
        cfg = ConvergenceConfig(model=std_model(), n_values=(16, 32), seeds=2,
                                boundary_m=256, symdiff_n_mc=1000)
        distances = run_convergence(cfg)
        assert np.all(distances["hausdorff"] > 0.0)


def kdtree_hausdorff(pa, pb):
    """The two-sided Hausdorff distance of two point sets by nearest-neighbor
    queries, as computed before the early-break algorithm."""
    return max(float(np.max(cKDTree(pb).query(pa)[0])),
               float(np.max(cKDTree(pa).query(pb)[0])))


def random_ellipse_spec(rng, d):
    r = rng.normal(size=(d, d))
    sigma = r @ r.T + 0.1 * np.eye(d)
    return LevelSetSpec(DepthModel(rng.normal(size=d), build_spd(sigma)), rng.uniform(0.05, 0.95))


@given(d=st.sampled_from([2, 3]), m=st.integers(64, 600), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_hausdorff_lies_within_resolution_below_the_point_set_value(d, m, seed):
    # exact distances from one side's samples to the other boundary: no more
    # than the nearest sample of that boundary, and short of it by at most
    # the covering radius, which the resolution bounds
    rng = np.random.default_rng(seed)
    a = random_ellipse_spec(rng, d)
    b = random_ellipse_spec(rng, d)
    point_set = kdtree_hausdorff(boundary_points(a, m), boundary_points(b, m))
    report = hausdorff_report(a, b, m)
    slack = 1e-12 * (1.0 + point_set)
    assert point_set - report.resolution - slack <= report.distance <= point_set + slack


def ellipse_spec(semi_axes):
    """Axis-aligned level set at alpha = 1/2 (squared radius 1): its
    boundary has the given semi-axes."""
    sigma = np.diag(np.square(np.asarray(semi_axes, dtype=float)))
    return LevelSetSpec(DepthModel(np.zeros(len(semi_axes)), build_spd(sigma)), 0.5)


class TestBoundaryDistance:
    """Exact point-to-ellipsoid distances, against closed forms and dense
    boundary samples."""

    ELLIPSE = ellipse_spec([2.0, 1.0])

    def distance(self, point, spec=ELLIPSE):
        return levelset_module._boundary_distances(np.array([point], dtype=float), spec)[0]

    def test_inside_on_the_major_axis(self):
        # zero coordinate on the shortest axis, with no root past its pole:
        # the nearest point (2/3, sqrt(8/9)) leaves the axis
        assert self.distance([0.5, 0.0]) == pytest.approx(math.sqrt(33.0) / 6.0, rel=1e-14)

    def test_inside_near_the_major_axis(self):
        # a coordinate of 1e-12 on the shortest axis lands on the same point
        assert self.distance([0.5, 1e-12]) == pytest.approx(math.sqrt(33.0) / 6.0, rel=1e-10)

    def test_inside_on_the_minor_axis(self):
        assert self.distance([0.0, 0.5]) == pytest.approx(0.5, rel=1e-14)

    def test_inside_on_the_major_axis_past_the_evolute(self):
        # beyond x = e1 - e2^2 / e1 = 1.5 the nearest point is the vertex
        assert self.distance([1.9, 0.0]) == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("spec, want", [(ELLIPSE, 1.0), (circle_spec(1.5), 1.5),
                                            (ellipse_spec([3.0, 2.0, 2.0]), 2.0)])
    def test_center(self, spec, want):
        assert self.distance(np.zeros(spec.dim), spec) == want

    @pytest.mark.parametrize("point", [[2.0, 0.0], [0.0, -1.0], [2.0 * math.cos(1.0), math.sin(1.0)]])
    def test_on_the_boundary(self, point):
        assert self.distance(point) == 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_dense_boundary_samples(self, d):
        rng = np.random.default_rng(40 + d)
        spec = random_ellipse_spec(rng, d)
        points = spec.model.mu + 2.0 * rng.normal(size=(300, d))
        got = levelset_module._boundary_distances(points, spec)
        samples = boundary_points(spec, 2**17)
        dense = cKDTree(samples).query(points)[0]
        assert np.all(got <= dense + 1e-12)
        # the equal-angle samples of d = 2 are fine enough for a 1e-8 check;
        # in d = 3 the samples' nearest-neighbor gap bounds the shortfall
        assert np.max(dense - got) < (1e-8 if d == 2 else levelset_module._nn_gap(samples))


def lens_pair():
    """Unit disks with centers 1/2 apart, and their symmetric difference."""
    return circle_spec(1.0), circle_spec(1.0, center=(0.5, 0.0)), SYM_DIFF_SHIFTED_DISKS


def overlapping_pair(rng):
    """Two random ellipses at one level, the second centered inside the
    first at 40% of its Mahalanobis radius."""
    a = random_ellipse_spec(rng, 2)
    u = rng.normal(size=2)
    offset = 0.4 * math.sqrt(a.radius_sq) * a.model.sigma.chol @ (u / np.linalg.norm(u))
    b = LevelSetSpec(DepthModel(a.model.mu + offset, random_ellipse_spec(rng, 2).model.sigma),
                     a.alpha)
    return a, b


class TestRadialSymDiffVolume:
    def test_annulus(self):
        got = radial_sym_diff_volume(circle_spec(1.0), circle_spec(2.0))
        assert got == pytest.approx(3.0 * math.pi, rel=1e-9)

    def test_lens(self):
        a, b, want = lens_pair()
        assert radial_sym_diff_volume(a, b) == pytest.approx(want, rel=1e-9)
        assert radial_sym_diff_volume(b, a) == pytest.approx(want, rel=1e-9)

    def test_identical_specs(self):
        spec = LevelSetSpec(std_model(), 0.5)
        assert radial_sym_diff_volume(spec, spec) == 0.0

    def test_four_times_the_angles_agree(self, monkeypatch):
        rng = np.random.default_rng(8)
        pairs = [overlapping_pair(rng) for _ in range(4)]
        coarse = [radial_sym_diff_volume(a, b) for a, b in pairs]
        monkeypatch.setattr(levelset_module, "RADIAL_ANGLES", 4 * levelset_module.RADIAL_ANGLES)
        fine = [radial_sym_diff_volume(a, b) for a, b in pairs]
        assert coarse == pytest.approx(fine, rel=2e-8)

    def test_intervals_are_exact(self):
        def interval(center, half_width):
            model = DepthModel(np.array([center]), build_spd([[half_width**2]]))
            return LevelSetSpec(model, 0.5)

        # [-1, 1] against [-1.5, 2.5], and nested [0, 4] inside [-1, 5]
        assert radial_sym_diff_volume(interval(0.0, 1.0), interval(0.5, 2.0)) == 2.0
        assert radial_sym_diff_volume(interval(2.0, 2.0), interval(2.0, 3.0)) == 2.0

    def test_none_in_three_dimensions(self):
        spec = LevelSetSpec(std_model(3), 0.5)
        assert radial_sym_diff_volume(spec, spec) is None

    def test_none_when_the_center_is_outside(self):
        # the center (0, 0) of the second set lies outside the first disk,
        # and on its boundary
        assert radial_sym_diff_volume(circle_spec(1.0, (3.0, 0.0)), circle_spec(1.0)) is None
        assert radial_sym_diff_volume(circle_spec(1.0, (1.0, 0.0)), circle_spec(1.0)) is None

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            radial_sym_diff_volume(LevelSetSpec(std_model(2), 0.5), LevelSetSpec(std_model(1), 0.5))

    def test_agrees_with_monte_carlo(self):
        rng = np.random.default_rng(12)
        for k in range(4):
            a, b = overlapping_pair(rng)
            want = radial_sym_diff_volume(a, b)
            est, se = sym_diff_volume(a, b, 20_000, RngStream(12, mix64(36, k)))
            assert abs(est - want) < 4.0 * se


class TestSymDiffVolume:
    def test_identical_specs(self):
        spec = LevelSetSpec(std_model(), 0.5)
        est, se = sym_diff_volume(spec, spec, 2000, RngStream(0))
        assert est == 0.0
        assert se == 0.0

    def test_annulus(self):
        # complements of radii 1 and 2 differ exactly on the annulus,
        # area 3 pi
        est, se = sym_diff_volume(
            circle_spec(1.0), circle_spec(2.0), 100_000, RngStream(5, mix64(32))
        )
        assert abs(est - 3.0 * math.pi) < 3.0 * se
        assert se < 0.05

    def test_shifted_disks(self):
        est, se = sym_diff_volume(
            circle_spec(1.0),
            circle_spec(1.0, center=(0.5, 0.0)),
            100_000,
            RngStream(5, mix64(33)),
        )
        assert abs(est - SYM_DIFF_SHIFTED_DISKS) < 3.0 * se

    def test_annulus_coverage(self):
        # the reported standard error must actually cover: across seeds,
        # at least 95 of 100 estimates land within 3 SE of the exact area
        hits = 0
        for seed in range(100):
            est, se = sym_diff_volume(
                circle_spec(1.0), circle_spec(2.0), 10_000, RngStream(seed, mix64(32))
            )
            hits += abs(est - 3.0 * math.pi) < 3.0 * se
        assert hits >= 95

    def test_shifted_coverage(self):
        hits = 0
        for seed in range(100):
            est, se = sym_diff_volume(
                circle_spec(1.0),
                circle_spec(1.0, center=(0.5, 0.0)),
                10_000,
                RngStream(seed, mix64(33)),
            )
            hits += abs(est - SYM_DIFF_SHIFTED_DISKS) < 3.0 * se
        assert hits >= 95

    def test_thin_tube_scaling(self):
        # nearby level sets differ on a tube around the boundary whose
        # volume is close to perimeter times thickness
        for thick in (0.002, 0.01):
            inner = circle_spec(1.0)
            outer = circle_spec(1.0 + thick)
            est, se = sym_diff_volume(inner, outer, 400_000, RngStream(9, mix64(34)))
            tube = 2.0 * math.pi * thick
            assert est < 1.3 * tube + 3.0 * se
            assert est > 0.7 * tube - 3.0 * se

    def test_min_mc(self):
        with pytest.raises(DomainError):
            sym_diff_volume(circle_spec(1.0), circle_spec(2.0), 999, RngStream(0))

    def test_deterministic(self):
        a = circle_spec(1.0)
        b = circle_spec(1.5)
        r1 = sym_diff_volume(a, b, 5000, RngStream(11, 4))
        r2 = sym_diff_volume(a, b, 5000, RngStream(11, 4))
        assert r1 == r2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_box_map_keeps_the_v0_bits(self, d):
        # the box map as it was: lo + u * (hi - lo) on the (n, d) uniforms
        rng = np.random.default_rng(d)
        a = random_ellipse_spec(rng, d)
        b = random_ellipse_spec(rng, d)
        lo, hi = levelset_module._union_box(a, b)
        pts = lo + RngStream(5, 9).uniforms(3000 * d).reshape(3000, d) * (hi - lo)
        frac = np.count_nonzero(in_lower_set(pts, a) ^ in_lower_set(pts, b)) / 3000
        est, _ = sym_diff_volume(a, b, 3000, RngStream(5, 9))
        assert est == float(np.prod(hi - lo)) * frac


class TestSymDiffProbability:
    def test_identical_specs(self):
        spec = LevelSetSpec(std_model(), 0.5)
        est, se = sym_diff_probability(
            spec, spec, lambda n, r: sample_gaussian(n, std_model(), r).points,
            2000, RngStream(0),
        )
        assert est == 0.0
        assert se == 0.0

    def test_gaussian_annulus_mass(self):
        # under the standard normal, |X|^2 is chi-square(2), so the annulus
        # 1 <= |x| < 2 has probability e^{-1/2} - e^{-2}
        expect = math.exp(-0.5) - math.exp(-2.0)
        est, se = sym_diff_probability(
            circle_spec(1.0),
            circle_spec(2.0),
            lambda n, r: sample_gaussian(n, std_model(), r).points,
            100_000,
            RngStream(13, mix64(35)),
        )
        assert abs(est - expect) < 3.0 * se
        assert se < 0.002

    def test_min_mc(self):
        with pytest.raises(DomainError):
            sym_diff_probability(
                circle_spec(1.0), circle_spec(2.0),
                lambda n, r: sample_gaussian(n, std_model(), r).points,
                0, RngStream(0),
            )

    def test_bad_sampler_shape(self):
        with pytest.raises(DimensionMismatch):
            sym_diff_probability(
                circle_spec(1.0), circle_spec(2.0),
                lambda n, r: np.zeros((n, 3)), 1000, RngStream(0),
            )


class TestFittedGeometryScales:
    def test_hausdorff_tracks_sup_norm(self):
        # for plug-in models the boundary Hausdorff distance and the depth
        # sup-norm gap shrink together: their ratio stays within a narrow
        # band across sample sizes and seeds
        pop = std_model()
        pop_spec = LevelSetSpec(pop, 0.5)
        ratios = []
        for n in (500, 2000, 8000):
            for seed in range(20):
                s = sample_gaussian(n, pop, RngStream(seed, mix64(31, n)))
                fitted = fit_model(s)
                h = hausdorff_report(
                    LevelSetSpec(fitted, 0.5), pop_spec, 4096
                ).distance
                g = sup_norm_distance(fitted, pop)
                ratios.append(h / g)
        assert max(ratios) / min(ratios) < 3.0
