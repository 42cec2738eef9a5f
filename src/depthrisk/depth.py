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
from scipy.linalg import solve_triangular

from .errors import DegenerateSample, DimensionMismatch, DomainError, NotPositiveDefinite
from .io import json_fields, json_floats, raise_problems
from .linalg import SpdMatrix, build_spd, cholesky_lower, quad_forms, whiten

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
        loc = np.array(mu, dtype=float)
        if loc.ndim != 1:
            raise DimensionMismatch(f"mu must be a vector, got shape {loc.shape}")
        if loc.shape[0] != sigma.dim:
            raise DimensionMismatch(
                f"mu has length {loc.shape[0]} but sigma has dimension {sigma.dim}"
            )
        if not np.all(np.isfinite(loc)):
            raise DomainError(f"mu must be finite, got {loc.tolist()}")
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
            "mu": lambda v: np.array(json_floats(v)),
            "sigma": lambda rows: np.array([json_floats(row) for row in rows]),
        }
        problems: list[str] = []
        fields = json_fields(obj, table, tuple(table), problems)
        raise_problems(problems)
        return DepthModel(fields["mu"], build_spd(fields["sigma"]))


def _point_rows(x, model: DepthModel) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
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
    val = quad_forms(model.sigma, pts, model.mu)
    val += 1.0
    np.divide(1.0, val, out=val)
    return float(val[0]) if single else val


def mhd_gradient(x, model: DepthModel):
    """Gradient of the depth: -2 * mhd(x)^2 * Sigma^{-1} (x - mu).

    Zero exactly at x == mu, the unique critical point.
    """
    pts, single = _point_rows(x, model)
    centered = pts - model.mu
    depth = 1.0 / (1.0 + quad_forms(model.sigma, centered))
    half = solve_triangular(model.sigma.chol, centered.T, lower=True, check_finite=False)
    full = solve_triangular(model.sigma.chol.T, half, lower=False, check_finite=False)
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
    (n < d + 1, or points in an affine hyperplane).  The core's factor is
    reused: the covariance is factored once."""
    mu, cov, low = fit_columns(s.points.T[None])
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
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"model dimensions differ: {a.dim} vs {b.dim}")
    frames = []
    for p, q in ((a, b), (b, a)):
        k = whiten(q.sigma.chol, p.sigma.chol)
        m, v = np.linalg.eigh(k.T @ k)
        frames.append((m, v.T @ whiten(p.sigma.chol, (q.mu - p.mu)[:, None])[:, 0]))
    m, e = (np.stack(x) for x in zip(*frames))
    best = 0.0
    for k in (0, -1):  # the hard-case rays; qa and qb leave out z_k
        mk = m[:, [k]]
        z = np.divide(m * e, m - mk, out=np.zeros_like(e), where=m != mk)
        w = z - e
        w[:, k] = 0.0
        qa, qb = np.sum(z * z, 1, keepdims=True), np.sum(m * w * w, 1, keepdims=True)
        root = np.sqrt(mk)
        sq = np.divide(root * (1.0 + qa) - (1.0 + qb), mk - root,
                       out=np.zeros_like(mk), where=mk != root)
        zk = np.sqrt(np.maximum(sq, 0.0))
        gap = 1.0 / (1.0 + qa + zk * zk) - 1.0 / (1.0 + qb + mk * (zk - e[:, [k]]) ** 2)
        best = max(best, np.abs(gap).max())
    # lambda = m_max (1 + r) on branch 0 and m_min / (1 + r) on branch 1,
    # r = exp(u), so m_i - lambda keeps its relative precision as r -> 0;
    # u is searched on a grid, then on three grids of 65 about the best u,
    # each 32 times finer
    ref, sign = m[:, [-1, 0], None, None], np.array([[1.0], [-1.0]])
    m, e = m[:, None, None], e[:, None, None]
    grid, h = np.broadcast_to(np.linspace(-40.0, 40.0, 769), (2, 2, 769)), 80.0 / 768
    for _ in range(4):
        r = np.exp(grid)
        step = np.stack([-r[:, 0], r[:, 1] / (1.0 + r[:, 1])], axis=1)[..., None]
        z = m * e / ((m - ref) + ref * step)
        w = z - e
        gap = sign * (1.0 / (1.0 + np.einsum("...i,...i->...", z, z))
                      - 1.0 / (1.0 + np.einsum("...i,...i,...i->...", w, m, w)))
        best = max(best, gap.max())
        center = np.take_along_axis(grid, gap.argmax(axis=-1)[..., None], axis=-1)
        grid, h = center + h * np.linspace(-1.0, 1.0, 65), h / 32.0
    return float(best)
