"""Depth lower-level sets and their geometry.

The lower level set at level alpha collects the outlying points

    L(alpha) = { x : mhd(x) <= alpha },

the complement of an open ellipsoid around the model location.  Its
boundary is the ellipsoid of squared Mahalanobis radius 1/alpha - 1.  This
module parametrizes that boundary and measures Hausdorff distances between
boundaries through exact point-to-ellipsoid distances.  It computes
symmetric-difference volumes by radial quadrature in d <= 2, and estimates
volumes and probabilities by Monte Carlo in any dimension.

Volume integrals route through the bounded complements U = { mhd >= alpha }:
membership in exactly one of L_a, L_b is pointwise identical to membership
in exactly one of U_a, U_b, and the U sets fit in a finite box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .depth import DepthModel, mhd
from .errors import DimensionMismatch, DomainError
from .io import is_count, is_real
from .linalg import whiten
from .rng import RngStream, mix64

BOUNDARY_TOL = 1e-12
RADIAL_ANGLES = 4096
_DIRECTION_SEED = 0xD14EC7
_NEWTON_STEPS = 100


class LevelSetSpec:
    """A depth model together with a level alpha in (0, 1).

    ``radius_sq`` is the squared Mahalanobis radius of the boundary
    ellipsoid, 1/alpha - 1.
    """

    __slots__ = ("model", "alpha")

    def __init__(self, model: DepthModel, alpha: float):
        self.model = model
        self.alpha = check_level(alpha)

    @property
    def radius_sq(self) -> float:
        return 1.0 / self.alpha - 1.0

    @property
    def dim(self) -> int:
        return self.model.dim

    def __repr__(self) -> str:  # pragma: no cover
        return f"LevelSetSpec(dim={self.dim}, alpha={self.alpha})"


def check_level(alpha) -> float:
    """``alpha`` as a float, if it is a level: a real number (not a string
    or a bool) strictly inside (0, 1).  Raises DomainError otherwise."""
    real = is_real(alpha)
    if not (real and 0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {float(alpha) if real else alpha!r}")
    return float(alpha)


def in_lower_set(x, spec: LevelSetSpec):
    """Membership of point(s) in the closed lower set { mhd <= alpha }.

    Boundary points count as members: depth within 1e-12 of alpha is in.
    Accepts a single point (returns bool) or an (n, d) batch (bool array).
    """
    member = depth_in_lower_set(mhd(x, spec.model), spec.alpha)
    return bool(member) if np.ndim(member) == 0 else member


def depth_in_lower_set(depth, alpha: float):
    """The membership rule on depths already computed: ``depth <= alpha``,
    with depths within 1e-12 above alpha counted in."""
    return depth <= alpha + BOUNDARY_TOL


@lru_cache(maxsize=8)
def _sphere_directions(d: int, m: int) -> np.ndarray:
    """m roughly-equally-spread unit directions in dimension d, read-only.

    Equal angles in the plane, a Fibonacci lattice on the 2-sphere, and
    normalized Gaussian directions (fixed internal stream) beyond.
    """
    if d == 1:
        u = np.where(np.arange(m) % 2 == 0, 1.0, -1.0).reshape(m, 1)
    elif d == 2:
        ang = 2.0 * np.pi * np.arange(m) / m
        u = np.column_stack([np.cos(ang), np.sin(ang)])
    elif d == 3:
        i = np.arange(m) + 0.5
        polar = np.arccos(1.0 - 2.0 * i / m)
        azim = np.pi * (1.0 + np.sqrt(5.0)) * i
        sp = np.sin(polar)
        u = np.column_stack([sp * np.cos(azim), sp * np.sin(azim), np.cos(polar)])
    else:
        stream = RngStream(_DIRECTION_SEED, mix64(d, m))
        z = stream.normals(m * d).reshape(m, d)
        norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        norms[norms == 0.0] = 1.0
        u = z / norms[:, None]
    u.setflags(write=False)
    return u


def boundary_points(spec: LevelSetSpec, m: int) -> np.ndarray:
    """m points on the boundary ellipsoid of the lower set.

    Images of equally spread sphere directions u under
    x = mu + r(alpha) * L u with L the Cholesky factor of Sigma, so every
    output satisfies |mhd(x) - alpha| < 1e-10.
    """
    if not is_count(m, 8):
        raise DomainError(f"need an integer m >= 8 of boundary points, got {m!r}")
    u = _sphere_directions(spec.dim, m)
    r = np.sqrt(spec.radius_sq)
    return spec.model.mu + r * (u @ spec.model.sigma.chol.T)


def _nn_gap(points: np.ndarray) -> float:
    """Max distance from any point of a sample to its nearest distinct-index
    neighbor."""
    dist, _ = cKDTree(points).query(points, k=2)
    return float(np.max(dist[:, 1]))


def _secular(y: np.ndarray, e2: np.ndarray, gaps: np.ndarray, u: np.ndarray):
    """The ratios y / (t + e2), F(t) and dF/dt of the secular equation
    F(t) = sum_i e2_i y_i^2 / (t + e2_i)^2 - 1 at u = t + e2_min, for
    coordinate rows ``y`` of shape (d, m).

    Each t + e2_i is formed as u + (e2_i - e2_min), which keeps full relative
    precision next to the pole u = 0.  A shortest axis (gap 0) has u = 0 only
    under a zero coordinate, whose ratio is then 0.
    """
    at_pole = np.where(u > 0.0, u, 1.0)
    r = np.empty_like(y)
    f = np.full(u.shape, -1.0)
    slope = np.zeros(u.shape)
    for i, gap in enumerate(gaps):  # one pass per axis, as in linalg.whiten
        s = u + gap if gap > 0.0 else at_pole
        np.divide(y[i], s, out=r[i])
        w = e2[i] * r[i] * r[i]
        f += w
        slope -= 2.0 * w / s
    return r, f, slope


def _boundary_distances(points: np.ndarray, spec: LevelSetSpec) -> np.ndarray:
    """Euclidean distance from each row of an (m, d) array to the boundary
    ellipsoid of ``spec``.

    In the eigenbasis of Sigma the ellipsoid has squared semi-axes
    e2 = r^2 lambda (ascending) and a point has coordinates y.  Its nearest
    boundary point is e2 y / (t + e2) at the root t > -e2_min of the secular
    equation F above, and its distance is |t| |y / (t + e2)| (D. Eberly,
    "Distance from a Point to an Ellipse, an Ellipsoid, or a
    Hyperellipsoid", Geometric Tools, 2013).  F falls and is convex there, so
    Newton's method from a start with F >= 0 rises monotonically to the
    root.  The start is max_i(e_i |y_i| - e2_i), where one term of F is 1,
    and at least 0 outside the ellipsoid, where F(0) > 0.  The iterate is
    u = t + e2_min, the distance to the pole.

    Two cases have no root past the pole.  An inside point with zero
    coordinates on the shortest axes (the center, for one) may have
    F(-e2_min) < 0: its nearest point then leaves those axes, at
    t = -e2_min, and the shortest axes add e2_min (-F(-e2_min)) to its
    squared distance.  A point with |F(0)| <= BOUNDARY_TOL lies on the
    boundary, at distance 0.
    """
    lam, basis = np.linalg.eigh(spec.model.sigma.entries)
    e2 = spec.radius_sq * lam
    gaps = e2 - e2[0]
    y = basis.T @ (points - spec.model.mu).T
    f0 = np.einsum("ij,i,ij->j", y, 1.0 / e2, y) - 1.0
    u = np.where(f0 > 0.0, e2[0], 0.0)
    for i, gap in enumerate(gaps):
        np.maximum(u, np.sqrt(e2[i]) * np.abs(y[i]) - gap, out=u)
    on_boundary = np.abs(f0) <= BOUNDARY_TOL
    u[on_boundary] = e2[0]
    r, f, slope = _secular(y, e2, gaps, u)
    past_pole = (u == 0.0) & (f < 0.0)
    active = ~(past_pole | on_boundary)
    for _ in range(_NEWTON_STEPS):
        if not active.any():
            break
        step = np.divide(-f, slope, out=np.zeros_like(f), where=active)
        u += step
        active &= step > 1e-13 * u
        r, f, slope = _secular(y, e2, gaps, u)
    t = u - e2[0]
    dist_sq = t * t * np.einsum("ij,ij->j", r, r)
    dist_sq[past_pole] -= e2[0] * f[past_pole]
    return np.sqrt(dist_sq)


@dataclass(frozen=True)
class HausdorffResult:
    """Hausdorff distance between two boundaries, and the resolution they
    were sampled at.

    ``distance`` is the larger of the two directed terms, each the largest
    exact distance from one boundary's samples to the other ellipsoid.  It
    is a lower bound of the true boundary Hausdorff distance, short of it by
    at most the samples' covering radius.
    ``resolution`` is the larger of the two samples' maximum
    nearest-neighbor gaps; honest tolerances for comparisons against exact
    geometry should be at least this wide.  It is computed from ``samples``
    on first access and then cached.
    """

    distance: float
    samples: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def resolution(self) -> float:
        return max(_nn_gap(p) for p in self.samples)


def hausdorff_report(a: LevelSetSpec, b: LevelSetSpec, m: int) -> HausdorffResult:
    """Two-sided Hausdorff distance between the boundaries of two lower
    sets, from m boundary samples of each: each directed term is the largest
    exact distance from one side's samples to the other boundary ellipsoid.
    The result gives the samples' resolution on request."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"level set dimensions differ: {a.dim} vs {b.dim}")
    if not is_count(m, 64):
        raise DomainError(f"a Hausdorff estimate needs an integer m >= 64, got {m!r}")
    pa = boundary_points(a, m)
    pb = boundary_points(b, m)
    pa.setflags(write=False)
    pb.setflags(write=False)
    d_ab = np.max(_boundary_distances(pa, b))
    d_ba = np.max(_boundary_distances(pb, a))
    return HausdorffResult(float(max(d_ab, d_ba)), (pa, pb))


def _radii(spec: LevelSetSpec, center: np.ndarray, directions: np.ndarray):
    """Distance from ``center`` to the boundary of ``spec`` along each unit
    row of ``directions``, or None unless the center lies strictly inside the
    boundary ellipsoid.

    In whitened coordinates the boundary is the sphere |w| = r, so the
    radius is the positive root of |v|^2 rho^2 + 2 (w0 . v) rho - k = 0,
    with w0 the whitened center, v the whitened direction and
    k = r^2 - |w0|^2 > 0.
    """
    chol = spec.model.sigma.chol
    w0 = whiten(chol, (center - spec.model.mu)[:, None])[:, 0]
    k = spec.radius_sq - float(w0 @ w0)
    if not k > 0.0:
        return None
    v = whiten(chol, directions.T)
    vv = np.einsum("ij,ij->j", v, v)
    b = w0 @ v
    root = np.sqrt(b * b + vv * k)
    # each branch is the form of the root without cancellation
    return np.where(b > 0.0, k / (b + root), (root - b) / vv)


def radial_sym_diff_volume(a: LevelSetSpec, b: LevelSetSpec) -> float | None:
    """Volume of the symmetric difference of two lower sets by radial
    quadrature, or None where the rule does not apply: in dimension 3 and up,
    or when the center c of ``b`` is not strictly inside the boundary
    ellipsoid of ``a``.

    The bounded complements U = { mhd >= alpha } are ellipsoids, so both are
    star-shaped about c and

        vol(A delta B) = (1/d) integral over unit u of |rho_a(u)^d - rho_b(u)^d|,

    with rho the radius from c along u.  In d = 1 the directions are +1 and
    -1 and the sum is exact.  In d = 2 it is a trapezoid rule over
    ``RADIAL_ANGLES`` equal angles.  The integrand g = rho_a^2 - rho_b^2 is
    smooth and periodic, and |g| has a kink where the boundaries cross; each
    kink gets the Euler-Maclaurin correction h^2 B2(s) |g'|, with
    B2(s) = s^2 - s + 1/6, s the kink's place in its step and g' read off the
    step's ends.  On the fitted-vs-true pairs of the shipped convergence
    config it agrees with 16 times as many angles to 4e-10 relative, and on
    random eccentric pairs to 2e-8.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"level set dimensions differ: {a.dim} vs {b.dim}")
    d = a.dim
    if d > 2:
        return None
    center = b.model.mu
    directions = _sphere_directions(d, 2 if d == 1 else RADIAL_ANGLES)
    rho_a = _radii(a, center, directions)
    if rho_a is None:
        return None
    g = rho_a**d - _radii(b, center, directions) ** d
    if d == 1:
        return float(np.sum(np.abs(g)))
    h = 2.0 * np.pi / RADIAL_ANGLES
    g_next = np.roll(g, -1)
    cross = np.flatnonzero((g < 0.0) != (g_next < 0.0))
    s = g[cross] / (g[cross] - g_next[cross])
    kinks = h * np.sum((s * s - s + 1.0 / 6.0) * np.abs(g_next[cross] - g[cross]))
    return 0.5 * (h * float(np.sum(np.abs(g))) + kinks)


def _union_box(a: LevelSetSpec, b: LevelSetSpec) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box covering both boundary ellipsoids, inflated by 1%.

    The extent of ellipsoid k along axis i is r_k(alpha) times the norm of
    row i of its Cholesky factor (the square root of Sigma_ii).
    """
    lows = []
    highs = []
    for s in (a, b):
        half = np.sqrt(s.radius_sq) * np.sqrt(
            np.einsum("ij,ij->i", s.model.sigma.chol, s.model.sigma.chol)
        )
        lows.append(s.model.mu - half)
        highs.append(s.model.mu + half)
    lo = np.minimum(*lows)
    hi = np.maximum(*highs)
    center = 0.5 * (lo + hi)
    half_width = 0.5 * (hi - lo) * 1.01
    return center - half_width, center + half_width


def sym_diff_volume(
    a: LevelSetSpec, b: LevelSetSpec, n_mc: int, rng: RngStream
) -> tuple[float, float]:
    """Monte Carlo volume of the symmetric difference of two lower sets.

    Uniform proposals over the inflated union bounding box of the two
    boundary ellipsoids; outside that box every point belongs to both lower
    sets, contributing nothing.  Returns (estimate, binomial standard error).
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"level set dimensions differ: {a.dim} vs {b.dim}")
    if not is_count(n_mc, 1_000):
        raise DomainError(f"n_mc must be an integer >= 1000, got {n_mc!r}")
    lo, hi = _union_box(a, b)
    d = a.dim

    def uniform_box(n: int, stream: RngStream) -> np.ndarray:
        u = stream.uniforms(n * d).reshape(n, d)
        for k in range(d):  # one pass per axis: a broadcast over short rows is slower
            u[:, k] *= hi[k] - lo[k]
            u[:, k] += lo[k]
        return u

    frac, se = sym_diff_probability(a, b, uniform_box, n_mc, rng)
    box_vol = float(np.prod(hi - lo))
    return box_vol * frac, box_vol * se


def sym_diff_probability(
    a: LevelSetSpec,
    b: LevelSetSpec,
    sampler: Callable[[int, RngStream], np.ndarray],
    n_mc: int,
    rng: RngStream,
) -> tuple[float, float]:
    """Probability mass of the symmetric difference under a data source.

    ``sampler(n, rng)`` must return an (n, d) array of draws from the
    probability law of interest.  Returns (estimate, binomial standard
    error) of the fraction falling in exactly one of the two lower sets.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"level set dimensions differ: {a.dim} vs {b.dim}")
    if not is_count(n_mc, 1):
        raise DomainError(f"n_mc must be an integer >= 1, got {n_mc!r}")
    pts = np.asarray(sampler(n_mc, rng), dtype=float)
    if pts.shape != (n_mc, a.dim):
        raise DimensionMismatch(
            f"sampler returned shape {pts.shape}, expected ({n_mc}, {a.dim})"
        )
    differ = in_lower_set(pts, a) ^ in_lower_set(pts, b)
    frac = float(np.count_nonzero(differ)) / n_mc
    se = np.sqrt(frac * (1.0 - frac) / n_mc)
    return frac, float(se)
