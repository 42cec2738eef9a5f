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

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DegenerateSample, DimensionMismatch, DomainError, NotPositiveDefinite
from .io import json_fields, json_floats, raise_problems
from .linalg import SpdMatrix, build_spd, cholesky_lower, quad_forms
from .rng import RngStream, mix64

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


# The probe set of probe_points: grid points per axis by dimension, box
# half-width in marginal SDs, far points and their radius.
PROBE_AXIS_POINTS = {1: 201, 2: 201, 3: 41}
PROBE_AXIS_POINTS_BEYOND = 9
PROBE_BOX_SDS = 6.0
PROBE_FAR_POINTS = 10_000
PROBE_FAR_RADIUS = 1_000.0
_PROBE_SEED = 0x5EEDFA11


def probe_points(a: DepthModel, b: DepthModel) -> np.ndarray:
    """The sup-norm probe set of two models: a tensor grid over the union of
    their boxes mu +- 6 * sqrt(diag(Sigma)) (201 points per axis for d <= 2,
    41 for d = 3, 9 beyond), plus 10,000 points at radii up to 1000 from the
    box center.  Depth gaps peak near the centers and vanish at infinity, so
    the grid carries the maximum and the far points guard the tail."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"model dimensions differ: {a.dim} vs {b.dim}")
    d = a.dim
    k = PROBE_AXIS_POINTS.get(d, PROBE_AXIS_POINTS_BEYOND)
    half_a = PROBE_BOX_SDS * np.sqrt(np.diag(a.sigma.entries))
    half_b = PROBE_BOX_SDS * np.sqrt(np.diag(b.sigma.entries))
    lows = np.minimum(a.mu - half_a, b.mu - half_b)
    highs = np.maximum(a.mu + half_a, b.mu + half_b)
    mesh = np.meshgrid(*(np.linspace(lows[i], highs[i], k) for i in range(d)), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    center = 0.5 * (lows + highs)
    return np.vstack([grid, center + _far_offsets(d)])


@lru_cache(maxsize=8)
def _far_offsets(d: int) -> np.ndarray:
    """The far probe points less the box center: PROBE_FAR_POINTS read-only
    rows in random directions at radii uniform up to PROBE_FAR_RADIUS, from
    the fixed stream of dimension d, so each dimension's set is drawn once."""
    stream = RngStream(_PROBE_SEED, mix64(d, PROBE_FAR_POINTS))
    z = stream.normals(PROBE_FAR_POINTS * d).reshape(PROBE_FAR_POINTS, d)
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    norms[norms == 0.0] = 1.0
    radii = PROBE_FAR_RADIUS * stream.uniforms(PROBE_FAR_POINTS)
    offsets = (radii / norms)[:, None] * z
    offsets.setflags(write=False)
    return offsets


def sup_norm_distance(a: DepthModel, b: DepthModel) -> float:
    """Max absolute depth gap over :func:`probe_points` of the pair: a lower
    bound of the true sup-norm distance between the two depth surfaces,
    which it approaches as the probe grid refines."""
    pts = probe_points(a, b)
    return float(np.max(np.abs(mhd(pts, a) - mhd(pts, b))))
