"""SPD matrix toolkit: construction, factors, column kernels, quadratic forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthrisk import (
    DepthModel,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
    NotSymmetric,
    build_spd,
    mahalanobis_sq,
    mhd,
    quad_forms,
)
from depthrisk.linalg import cholesky_lower, color, whiten


def random_spd(rng, d):
    r = rng.normal(size=(d, d))
    return r @ r.T + 0.05 * np.eye(d)


class TestBuildSpd:
    def test_identity(self):
        m = build_spd(np.eye(2))
        assert np.array_equal(m.chol, np.eye(2))
        assert m.dim == 2

    def test_diagonal(self):
        m = build_spd([[4.0, 0.0], [0.0, 9.0]])
        assert np.array_equal(m.chol, [[2.0, 0.0], [0.0, 3.0]])

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            build_spd([[1.0, 2.0], [2.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_spd(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch, match="at least one row"):
            build_spd(np.zeros((0, 0)))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotSymmetric):
            build_spd(a)

    def test_last_bit_asymmetry_symmetrized(self):
        a = np.array([[2.0, 0.3], [0.3 + 1e-14, 2.0]])
        m = build_spd(a)
        assert m.entries[0, 1] == m.entries[1, 0]

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = rng.integers(1, 6)
            a = random_spd(rng, d)
            m = build_spd(a)
            rel = np.linalg.norm(m.chol @ m.chol.T - m.entries) / np.linalg.norm(a)
            assert rel < 1e-10

    def test_entries_read_only(self):
        m = build_spd(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0
        with pytest.raises(ValueError):
            m.chol[0, 0] = 5.0


class TestQuadForm:
    def test_identity_is_squared_norm(self):
        m = build_spd(np.eye(2))
        assert quad_forms(m, [np.array([3.0, 4.0])])[0] == 25.0

    def test_diagonal_inverse(self):
        m = build_spd([[4.0, 0.0], [0.0, 1.0]])
        assert quad_forms(m, [np.array([2.0, 0.0])])[0] == 1.0

    def test_against_cofactor_inverse_3x3(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a = random_spd(rng, 3)
            v = rng.normal(size=3)
            m = build_spd(a)
            # explicit inverse through the adjugate
            c = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
                    c[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
            inv = c.T / np.linalg.det(a)
            expect = float(v @ inv @ v)
            got = quad_forms(m, [v])[0]
            assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))

    def test_nonnegative_zero_iff_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            d = rng.integers(1, 5)
            m = build_spd(random_spd(rng, d))
            v = rng.normal(size=d)
            assert quad_forms(m, [v])[0] >= 0.0
            assert quad_forms(m, [np.zeros(d)])[0] <= 1e-14

    def test_dimension_mismatch(self):
        m = build_spd(np.eye(2))
        with pytest.raises(DimensionMismatch):
            quad_forms(m, np.ones(3))
        with pytest.raises(DimensionMismatch):
            quad_forms(m, np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            quad_forms(m, np.ones((2, 2, 2)))
        with pytest.raises(DimensionMismatch):  # a center of another length
            quad_forms(m, np.ones((2, 2)), np.ones(3))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(17)
        m = build_spd(random_spd(rng, 3))
        rows = rng.normal(size=(50, 3))
        batch = quad_forms(m, rows)
        single = np.array([quad_forms(m, [r])[0] for r in rows])
        assert np.allclose(batch, single, rtol=1e-13, atol=1e-13)


class TestColumnKernels:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_color_is_the_inverse_of_whiten(self, d):
        rng = np.random.default_rng(d)
        low = cholesky_lower(random_spd(rng, d))
        cols = rng.normal(size=(d, 40))
        colored = color(low, cols)
        assert np.allclose(colored, low @ cols, rtol=1e-12, atol=1e-12)
        assert np.allclose(whiten(low, colored), cols, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_color_of_a_stack_is_each_block_colored(self, d):
        rng = np.random.default_rng(d)
        low = cholesky_lower(random_spd(rng, d))
        stack = rng.normal(size=(4, d, 30))
        colored = color(low, stack)
        for got, cols in zip(colored, stack):
            assert np.array_equal(got, color(low, cols))


class TestNonFiniteAndStacks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_build_spd_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            build_spd([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(DomainError):
            build_spd([[2.0, bad], [bad, 2.0]])
        with pytest.raises(DomainError, match="must be finite"):
            cholesky_lower(np.stack([np.eye(2), [[1.0, 0.0], [0.0, bad]]]))

    def test_build_spd_rejects_entries_whose_symmetrization_overflows(self):
        with pytest.raises(DomainError, match="half the largest float"):
            build_spd([[1e308, 0.0], [0.0, 1e308]])

    def test_stack_matches_single_factors(self):
        rng = np.random.default_rng(12)
        stack = np.stack([random_spd(rng, 3) for _ in range(5)])
        low = cholesky_lower(stack)
        for a, l in zip(stack, low):
            assert np.array_equal(l, cholesky_lower(a))
            assert np.allclose(l @ l.T, a, rtol=1e-12, atol=0.0)

    def test_stack_failure_names_the_matrix(self):
        # LAPACK failure (indefinite) and pivot floor (tiny positive pivot)
        for bad in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, 1e-305]]):
            stack = np.stack([np.eye(2), np.asarray(bad), np.eye(2)])
            with pytest.raises(NotPositiveDefinite, match="matrix 1 of the stack"):
                cholesky_lower(stack)

    def test_pivot_floor_applies_to_build_spd(self):
        with pytest.raises(NotPositiveDefinite):
            build_spd([[1.0, 0.0], [0.0, 1e-305]])


class TestGivenFactor:
    def test_matches_factoring_in_the_constructor(self):
        a = random_spd(np.random.default_rng(4), 3)
        given_factor = build_spd(a, cholesky_lower(a))
        own = build_spd(a)
        assert np.array_equal(given_factor.chol, own.chol)
        assert np.array_equal(given_factor.entries, own.entries)
        assert not given_factor.chol.flags.writeable

    def test_checks_still_apply(self):
        with pytest.raises(DimensionMismatch):
            build_spd(np.eye(2), np.eye(3))
        with pytest.raises(NotPositiveDefinite):
            build_spd(np.eye(2), [[1.0, 0.0], [0.0, 1e-160]])
        with pytest.raises(NotSymmetric):
            build_spd([[1.0, 0.5], [0.0, 1.0]], np.eye(2))
        with pytest.raises(DomainError):
            build_spd([[1.0, np.nan], [np.nan, 1.0]], np.eye(2))


def v0_quad_forms(low, rows):
    """The quadratic forms as computed before the one-buffer kernel: whiten a
    copy of the transposed rows kept in the rows' own memory order, then
    transpose back and reduce each row."""
    w = np.array(np.asarray(rows, dtype=float).T, dtype=float)
    low = np.asarray(low, dtype=float)
    for j in range(w.shape[-2]):
        for m in range(j):
            w[..., j, :] -= w[..., m, :] * low[..., j, m, None]
        w[..., j, :] /= low[..., j, j, None]
    w = w.T
    return np.einsum("ij,ij->i", w, w)


def in_layout(rows, layout):
    if layout == "C":
        return np.ascontiguousarray(rows)
    if layout == "F":
        return np.asfortranarray(rows)
    # every other row and column of a larger array
    n, d = rows.shape
    big = np.zeros((2 * n, 2 * d))
    big[::2, ::2] = rows
    return big[::2, ::2]


@given(
    d=st.sampled_from([1, 2, 3, 5]),
    n=st.integers(1, 40),
    layout=st.sampled_from(["C", "F", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_quad_forms_and_mhd_keep_the_v0_bits(d, n, layout, seed):
    """The whitening is the same elementwise arithmetic as before and the
    reduction sums the squares coordinate by coordinate.  The old code summed
    in that order too when the reduction ran over strided rows (column-major
    input of more than one row) or over at most two coordinates, so there
    the bits are the same.  For row-major input with d >= 3, and for a single
    row, which is contiguous in every layout, it used numpy's vectorised
    contiguous reduction, whose rounding differs in the last bits: there the
    two agree to a few ulps, and the new result depends neither on the layout
    nor on the number of rows."""
    rng = np.random.default_rng(seed)
    model = DepthModel(rng.normal(size=d) * 3.0, build_spd(random_spd(rng, d)))
    pts = rng.normal(size=(n, d)) * rng.uniform(0.1, 30.0)
    rows = in_layout(pts, layout)
    kept = rows.copy()
    low = model.sigma.chol
    got = {
        "quad_forms": quad_forms(model.sigma, rows - model.mu),
        "mahalanobis_sq": mahalanobis_sq(rows, model),
        "mhd": mhd(rows, model),
    }
    want_q = v0_quad_forms(low, rows - model.mu)
    want = {"quad_forms": want_q, "mahalanobis_sq": want_q, "mhd": 1.0 / (1.0 + want_q)}
    for name in got:
        if d <= 2 or (layout == "F" and n > 1):
            assert np.array_equal(got[name], want[name]), name
        else:
            np.testing.assert_allclose(got[name], want[name], rtol=4 * d * np.finfo(float).eps,
                                       atol=0.0, err_msg=name)
    assert np.array_equal(got["mhd"], mhd(np.ascontiguousarray(pts), model))
    assert np.array_equal(got["quad_forms"], quad_forms(model.sigma, pts - model.mu))
    assert np.array_equal(rows, kept)  # the kernel whitens its own copy


@pytest.mark.parametrize("d", [3, 4])
def test_one_point_has_its_batch_bits(d):
    # the squares are summed coordinate by coordinate whatever the batch
    # size, so a point's depth does not depend on the points beside it
    rng = np.random.default_rng(d)
    model = DepthModel(rng.normal(size=d), build_spd(random_spd(rng, d)))
    pts = rng.normal(size=(2000, d)) * 3.0
    batch = mhd(pts, model)
    assert [mhd(x, model) for x in pts] == batch.tolist()
    forms = quad_forms(model.sigma, pts, model.mu)
    assert [quad_forms(model.sigma, x, model.mu)[0] for x in pts] == forms.tolist()


def test_quad_forms_center_is_subtracted_exactly():
    rng = np.random.default_rng(8)
    m = build_spd(random_spd(rng, 3))
    rows = rng.normal(size=(50, 3))
    center = rng.normal(size=3)
    assert np.array_equal(quad_forms(m, rows, center), quad_forms(m, rows - center))
