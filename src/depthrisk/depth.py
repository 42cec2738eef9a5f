"""Mahalanobis depth: population form, plug-in empirical form, gradient.

The depth of a point x under a location mu and scatter Sigma is

    mhd(x) = 1 / (1 + (x - mu)' Sigma^{-1} (x - mu))

so it peaks at exactly 1 at mu and decays toward 0 along every ray.  The
empirical (plug-in) version evaluates the same formula at the fitted mean
and unbiased covariance of a sample.

The depth interface is deliberately small: a model is a (mu, Sigma) pair and
a depth is a map (point, model) -> (0, 1].  Level-set and tail-expectation
code depends only on that shape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateSample, DimensionMismatch, NotPositiveDefinite
from .io import check_dims, check_finite, json_fields, json_floats, raise_problems
from .linalg import (SpdMatrix, _column_forms, _column_norms, build_spd, cholesky_lower,
                     quad_forms, whiten)
from .rng import CHUNK

if TYPE_CHECKING:  # pragma: no cover
    from .sampling import Sample


class DepthModel:
    """Location vector plus SPD scatter matrix defining a Mahalanobis depth.

    Attributes
    ----------
    mu : ndarray, shape (d,), read-only, finite (DomainError otherwise)
    sigma : SpdMatrix

    Immutable and shareable across threads.
    """

    __slots__ = ("mu", "sigma")

    def __init__(self, mu, sigma: SpdMatrix):
        loc = np.array(check_finite(mu, "mu"))
        if loc.shape != (sigma.dim,):
            raise DimensionMismatch(f"mu must have shape ({sigma.dim},) of sigma, got {loc.shape}")
        loc.setflags(write=False)
        self.mu = loc
        self.sigma = sigma

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"DepthModel(dim={self.dim})"

    def to_json(self) -> dict:
        return {"mu": self.mu.tolist(), "sigma": self.sigma.entries.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "DepthModel":
        """The model of a parsed JSON object with exactly the keys ``mu`` (an
        array of numbers) and ``sigma`` (an array of rows of numbers), read by
        :func:`~depthrisk.io.json_fields`: one ConfigError names every
        missing, unknown or wrong-typed key."""
        table = {
            "mu": json_floats,
            "sigma": lambda rows: np.array([json_floats(row) for row in rows]),
        }
        problems: list[str] = []
        fields = json_fields(obj, table, tuple(table), problems)
        raise_problems(problems)
        return DepthModel(fields["mu"], build_spd(fields["sigma"]))


def _point_rows(x, model: DepthModel) -> tuple[np.ndarray, bool]:
    pts = check_finite(x, "x")
    single = pts.ndim == 1
    if pts.ndim not in (1, 2) or pts.shape[-1] != model.dim:
        raise DimensionMismatch(
            f"expected point(s) of dimension {model.dim}, got shape {pts.shape}"
        )
    return pts.reshape(-1, model.dim), single


def mahalanobis_sq(x, model: DepthModel):
    """Squared Mahalanobis distance(s) of x from the model location."""
    pts, single = _point_rows(x, model)
    d2 = quad_forms(model.sigma, pts, model.mu)
    return float(d2[0]) if single else d2


def mhd(x, model: DepthModel):
    """Mahalanobis depth of one point (shape (d,)) or many (shape (n, d)).

    Returns a float for a single point, an (n,) array for a batch.  Values
    lie in (0, 1], and equal 1 exactly when x == mu.
    """
    pts, single = _point_rows(x, model)
    val = _column_depths(model.sigma.chol, pts.T, model.mu)
    return float(val[0]) if single else val


def _column_depths(low, cols, mu=0.0) -> np.ndarray:
    """The depths 1 / (1 + |L^{-1} (x - mu)|^2) of the columns x of ``cols``
    (..., d, n): one over one plus their :func:`~depthrisk.linalg._column_forms`."""
    val = _column_forms(low, cols, mu)
    val += 1.0
    return np.divide(1.0, val, out=val)


def mhd_gradient(x, model: DepthModel):
    """Gradient of the depth: -2 * mhd(x)^2 * Sigma^{-1} (x - mu).

    Zero exactly at x == mu, the unique critical point.  Sigma^{-1} (x - mu)
    is L'^{-1} w for the whitened w = L^{-1} (x - mu): the back substitution
    with L' is :func:`~depthrisk.linalg.whiten` with the factor and w in
    reversed order.  The depth 1 / (1 + |w|^2) has the bits of :func:`mhd`.
    """
    pts, single = _point_rows(x, model)
    low = model.sigma.chol
    half = whiten(low, (pts - model.mu).T)
    full = whiten(low.T[::-1, ::-1], half[::-1])[::-1]
    depth = 1.0 / (1.0 + _column_norms(half))
    grad = (-2.0 * depth * depth)[:, None] * full.T
    return grad[0] if single else grad


def fit_columns(cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plug-in fits of a stack of k samples of n points each, stored as
    columns of shape (k, d, n): the means (k, d), the covariances (k, d, d)
    with the 1/(n-1) normalization, and their lower Cholesky factors.
    Raises DegenerateSample if n < d + 1, or if the covariance of some
    sample fails the Cholesky pivot floor (the message names the first)."""
    _, d, n = cols.shape
    if n < d + 1:
        raise DegenerateSample(f"need at least d+1 = {d + 1} points, got {n}")
    mu = cols.mean(axis=2)
    dev = cols - mu[..., None]
    cov = np.einsum("kin,kjn->kij", dev, dev) / (n - 1)
    try:
        low = cholesky_lower(cov)
    except NotPositiveDefinite as err:
        raise DegenerateSample(f"sample covariance is not positive definite: {err}") from err
    return mu, cov, low


def fit_model(s: "Sample") -> DepthModel:
    """Fit the plug-in depth model, sample mean and unbiased covariance:
    :func:`fit_columns` of one sample, raising DegenerateSample as it does
    (n < d + 1, or points in an affine hyperplane).  It fits C-contiguous
    columns, so its bits are the core's in any memory layout.  The core's
    factor is reused: the covariance is factored once."""
    mu, cov, low = fit_columns(np.ascontiguousarray(s.points.T)[None])
    return DepthModel(mu[0], build_spd(cov[0], low[0]))


def sup_norm_distance(a: DepthModel, b: DepthModel) -> float:
    """The sup over x of |mhd(x, a) - mhd(x, b)|, exact to about 1e-10.

    In a's whitened eigenframe z = V' L_a^{-1} (x - mu_a), where
    V diag(m) V' = K'K for K = L_b^{-1} L_a and e = V' L_a^{-1} (mu_b - mu_a),
    the gap is g = 1 / (1 + |z|^2) - 1 / (1 + sum_i m_i (z_i - e_i)^2).  Its
    critical points solve trust-region subproblems (J. J. More and D. C.
    Sorensen, "Computing a trust region step", SIAM J. Sci. Stat. Comput.
    4(3), 1983): z_i = m_i e_i / (m_i - lambda) with lambda > m_max at the
    max of g and 0 < lambda < m_min at its min, each branch searched on a
    grid, or the best point of the hard-case ray z_k at lambda = m_k
    (e_k = 0, as in concentric pairs), in closed form.  Every value is g at a
    point, and both frames are searched, so the result is symmetric.

    This is the one-pair case of the block kernel :func:`_sup_norms`, which
    a convergence study runs on all the fits of a block at once.
    """
    check_dims(a, b, "model")
    return float(_sup_norms(a.mu[None], a.sigma.chol[None], b.mu[None], b.sigma.chol[None])[0])


def _sup_norms(mu_a, low_a, mu_b, low_b) -> np.ndarray:
    """:func:`sup_norm_distance` of k pairs of models at once, from their
    means (k, d) and lower Cholesky factors (k, d, d); either side may be a
    single model (k = 1) shared by every pair.  Each step runs over the whole
    stack with the pair as a leading axis, so row j depends on pair j alone
    and has the bits of its one-pair call; the first grid's (pairs, frame,
    branch, 769) arrays alone are taken ``CHUNK // (4 * 769)`` = 5 pairs at a
    time, so each holds at most ``CHUNK`` values at any k.  The grid search
    makes one pass per coordinate, and sums the squares |z|^2 in the order of
    :func:`_einsum_order_sum` and the terms of sum_i m_i w_i^2 in coordinate
    order."""
    mu_a, mu_b = np.broadcast_arrays(mu_a, mu_b)
    low_a, low_b = np.broadcast_arrays(low_a, low_b)
    # axis 1 is the frame: a's, then b's
    p, q = np.stack([low_a, low_b], axis=1), np.stack([low_b, low_a], axis=1)
    kq = whiten(q, p)
    m, v = np.linalg.eigh(np.swapaxes(kq, -1, -2) @ kq)
    shift = np.stack([mu_b - mu_a, mu_a - mu_b], axis=1)[..., None]
    e = (np.swapaxes(v, -1, -2) @ whiten(p, shift))[..., 0]
    best = np.zeros(len(m))
    for k in (0, -1):  # the hard-case rays; qa and qb leave out z_k
        mk = m[..., [k]]
        z = np.divide(m * e, m - mk, out=np.zeros_like(e), where=m != mk)
        w = z - e
        w[..., k] = 0.0
        qa, qb = np.sum(z * z, -1, keepdims=True), np.sum(m * w * w, -1, keepdims=True)
        root = np.sqrt(mk)
        sq = np.divide(root * (1.0 + qa) - (1.0 + qb), mk - root,
                       out=np.zeros_like(mk), where=mk != root)
        zk = np.sqrt(np.maximum(sq, 0.0))
        gap = 1.0 / (1.0 + qa + zk * zk) - 1.0 / (1.0 + qb + mk * (zk - e[..., [k]]) ** 2)
        np.fmax(best, np.abs(gap).max(axis=(1, 2)), out=best)
    # lambda = m_max (1 + r) on branch 0 and m_min / (1 + r) on branch 1,
    # r = exp(u), so m_i - lambda keeps its relative precision as r -> 0;
    # u is searched on a grid, then on three grids of 65 about each best u,
    # each 32 times finer; the first grid is one row, both branches' (so row
    # -1 is branch 1's), for every pair
    grid, h = np.linspace(-40.0, 40.0, 769)[None], 80.0 / 768
    per = CHUNK // (4 * grid.size)
    rows = [slice(j, j + per) for j in range(0, len(m), per)]
    center = np.concatenate([_grid_search(best[s], m[s], e[s], grid) for s in rows])
    for _ in range(3):
        grid, h = center + h * np.linspace(-1.0, 1.0, 65), h / 32.0
        center = _grid_search(best, m, e, grid)
    return best


def _grid_search(best, m, e, grid):
    """One grid of :func:`_sup_norms`: raise ``best`` (k,) in place to each
    pair's largest gap on ``grid`` and return each row's best u (k, 2, 2, 1)."""
    ref, sign = m[..., [-1, 0], None], np.array([[1.0], [-1.0]])
    r = np.exp(grid)
    step = ref * np.stack([-r[..., 0, :], r[..., -1, :] / (1.0 + r[..., -1, :])], axis=-2)
    squares, qb = [], 0.0
    for i in range(m.shape[-1]):
        mi, ei = m[..., i, None, None], e[..., i, None, None]
        z = mi * ei / ((mi - ref) + step)
        w = z - ei
        squares.append(z * z)
        qb = qb + w * mi * w
    gap = sign * (1.0 / (1.0 + _einsum_order_sum(squares)) - 1.0 / (1.0 + qb))
    np.fmax(best, gap.max(axis=(1, 2, 3)), out=best)
    best_u = gap.argmax(axis=-1)[..., None]
    return np.take_along_axis(np.broadcast_to(grid, gap.shape), best_u, axis=-1)


def _einsum_order_sum(terms):
    """The sum of ``terms``, one array per coordinate, in the order of the
    dot product of ``np.einsum`` over a contiguous last axis (numpy 2.4 on
    x86-64): a sum of the even and one of the odd coordinates, each taking
    full blocks of eight from the top down and then the rest, then added."""
    d = len(terms)
    top = d - d % 8
    even = [b + j for b in range(0, top, 8) for j in (6, 4, 2, 0)] + [*range(top, d, 2)]
    return sum(terms[i] for i in even) + sum(terms[i + 1] for i in even if i + 1 < d)
