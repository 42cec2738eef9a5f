"""Depth lower-level sets and their geometry.

The lower level set at level alpha collects the outlying points

    L(alpha) = { x : mhd(x) <= alpha },

the complement of an open ellipsoid around the model location.  Its
boundary is the ellipsoid of squared Mahalanobis radius 1/alpha - 1.  This
module parametrizes that boundary and measures Hausdorff distances between
boundaries through exact point-to-ellipsoid distances.  Its block
kernel computes symmetric-difference volumes by radial quadrature for the
convergence study, and it estimates them by Monte Carlo for the CLI, both
in any dimension.

Volume integrals route through the bounded complements U = { mhd >= alpha }:
membership in exactly one of L_a, L_b is pointwise identical to membership
in exactly one of U_a, U_b, and the U sets fit in a finite box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .depth import DepthModel, mhd
from .io import check_count, check_dims, check_level
from .linalg import _column_norms, _whiten_in_place, whiten
from .rng import RngStream, mix64

BOUNDARY_TOL = 1e-12
RADIAL_ANGLES = 4096
SPHERE_DIRECTIONS = 1 << 16
_DIRECTION_SEED = 0xD14EC7
_NEWTON_STEPS = 100


class LevelSetSpec:
    """A depth model together with a level alpha in (0, 1).  Levels, counts
    and the dimensions of two sets follow the rules of :mod:`depthrisk.io`.

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


def in_lower_set(x, spec: LevelSetSpec):
    """Membership of point(s) in the closed lower set { mhd <= alpha }.

    Boundary points count as members: depth within 1e-12 of alpha is in.
    Accepts a single point (returns bool) or an (n, d) batch (bool array).
    """
    member = depth_in_lower_set(mhd(x, spec.model), spec.alpha)
    return bool(member) if np.ndim(member) == 0 else member


def depth_in_lower_set(depth, alpha: float, out=None):
    """The membership rule on depths already computed: ``depth <= alpha``,
    with depths within 1e-12 above alpha counted in; written into the bool
    array ``out`` if one is given."""
    return np.less_equal(depth, alpha + BOUNDARY_TOL, out=out)


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


class _Sets(NamedTuple):
    """A stack of k lower sets of one dimension d, as the block kernels read
    them: centers (k, d), scatter matrices and their lower Cholesky factors
    (k, d, d), and one squared Mahalanobis radius shared by the stack."""

    mu: np.ndarray
    sigma: np.ndarray
    low: np.ndarray
    radius_sq: float


def _stack(spec: LevelSetSpec) -> _Sets:
    """The one-set stack (k = 1) of ``spec``."""
    model = spec.model
    return _Sets(model.mu[None], model.sigma.entries[None], model.sigma.chol[None],
                 spec.radius_sq)


def boundary_points(spec: LevelSetSpec, m: int) -> np.ndarray:
    """m points on the boundary ellipsoid of the lower set.

    Images of equally spread sphere directions u under
    x = mu + r(alpha) * L u with L the Cholesky factor of Sigma, so every
    output satisfies |mhd(x) - alpha| < 1e-10.
    """
    check_count(m, 8, "m")
    return _boundary_columns(_stack(spec), m)[0].T


def _boundary_columns(sets: _Sets, m: int) -> np.ndarray:
    """The boundary points of :func:`boundary_points` as columns, m for each
    set of the stack: shape (k, d, m).  L u is one BLAS product: a sum of
    elementwise products would round differently, where BLAS fuses a
    multiply and an add."""
    u = _sphere_directions(sets.mu.shape[-1], m)
    return sets.mu[:, :, None] + np.sqrt(sets.radius_sq) * (sets.low @ u.T)


def _nn_gap(points: np.ndarray) -> float:
    """Max distance from any point of a sample to its nearest distinct-index
    neighbor, exactly.  The points, sorted along their widest axis, are
    swept at offsets k = 1, 2, ...: a pair k apart can lower an end's
    nearest squared distance only while its squared gap along that axis is
    below it, and the gaps grow with k, so the sweep ends at the first k
    where no pair can."""
    axis = np.argmax(np.ptp(points, axis=0))
    p = points[np.argsort(points[:, axis], kind="stable")]
    best = np.full(len(p), np.inf)
    for k in range(1, len(p)):
        gap = p[k:, axis] - p[:-k, axis]
        i = np.flatnonzero(gap * gap < np.maximum(best[:-k], best[k:]))
        if not i.size:
            break
        sq = _column_norms((p[i + k] - p[i]).T)
        best[i] = np.minimum(best[i], sq)
        best[i + k] = np.minimum(best[i + k], sq)
    return float(np.sqrt(best.max()))


def _eigenframe(cols: np.ndarray, sets: _Sets):
    """The points, columns (k, d, m), in the eigenframes of the stack's
    ellipsoids, either side broadcast from k = 1: coordinates y (k, d, m) in
    the eigenbasis of each Sigma, the squared semi-axes e2 = r^2 lambda
    (k, d), ascending, and f0 = phi^2 - 1 (k, m), with
    phi = |diag(e2)^{-1/2} y| the gauge of the ellipsoid (phi = 1 on its
    boundary), summed coordinate by coordinate."""
    lam, basis = np.linalg.eigh(sets.sigma)
    e2 = sets.radius_sq * lam
    y = np.swapaxes(basis, -1, -2) @ (cols - sets.mu[:, :, None])
    inv = 1.0 / e2[..., None]
    f0 = sum(y[:, i] * inv[:, i] * y[:, i] for i in range(y.shape[1])) - 1.0
    return y, e2, f0


def _secular(y: np.ndarray, e2: np.ndarray, gaps: np.ndarray, u: np.ndarray):
    """The ratios y / (t + e2), F(t) and dF/dt of the secular equation
    F(t) = sum_i e2_i y_i^2 / (t + e2_i)^2 - 1 at u = t + e2_min, for
    coordinate rows ``y`` of shape (d, M), with squared semi-axes ``e2`` and
    their ``gaps`` to e2_min of shape (d, M), or (d, 1) when all M points
    share one ellipsoid.

    Each t + e2_i is formed as u + (e2_i - e2_min), which keeps full relative
    precision next to the pole u = 0.  A shortest axis (gap 0) has u = 0 only
    under a zero coordinate, whose ratio is then 0.
    """
    at_pole = np.where(u > 0.0, u, 1.0)
    r = np.empty_like(y)
    f = np.full(u.shape, -1.0)
    slope = np.zeros(u.shape)
    for i, gap in enumerate(gaps):  # one pass per axis, as in linalg.whiten
        s = np.where(gap > 0.0, u + gap, at_pole)
        np.divide(y[i], s, out=r[i])
        w = e2[i] * r[i] * r[i]
        f += w
        slope -= 2.0 * w / s
    return r, f, slope


def _boundary_distances(y: np.ndarray, e2: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Euclidean distance from M points to the boundaries of their
    ellipsoids, from their eigenframe coordinates y (d, M), the squared
    semi-axes e2 (d, M), or (d, 1) for one shared ellipsoid, ascending, and
    f0 = phi^2 - 1 (M,), as :func:`_eigenframe` gives them.

    A point's nearest boundary point is e2 y / (t + e2) at the root
    t > -e2_min of the secular equation F above, and its distance is
    |t| |y / (t + e2)| (D. Eberly, "Distance from a Point to an Ellipse, an
    Ellipsoid, or a Hyperellipsoid", Geometric Tools, 2013).  F falls and is
    convex there, so Newton's method from a start with F >= 0 rises
    monotonically to the root.  The start is max_i(e_i |y_i| - e2_i), where
    one term of F is 1, and at least 0 outside the ellipsoid, where
    F(0) > 0.  The iterate is u = t + e2_min, the distance to the pole.
    Each point stops on its own step, so its bits do not depend on the other
    points.

    Two cases have no root past the pole.  An inside point with zero
    coordinates on the shortest axes (the center, for one) may have
    F(-e2_min) < 0: its nearest point then leaves those axes, at
    t = -e2_min, and the shortest axes add e2_min (-F(-e2_min)) to its
    squared distance.  A point with |F(0)| <= BOUNDARY_TOL lies on the
    boundary, at distance 0.
    """
    gaps = e2 - e2[0]
    u = np.where(f0 > 0.0, e2[0], 0.0)
    for i, gap in enumerate(gaps):
        np.maximum(u, np.sqrt(e2[i]) * np.abs(y[i]) - gap, out=u)
    on_boundary = np.abs(f0) <= BOUNDARY_TOL
    u = np.where(on_boundary, e2[0], u)
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
    dist_sq = t * t * _column_norms(r)
    dist_sq -= np.where(past_pole, e2[0] * f, 0.0)
    return np.sqrt(dist_sq)


@dataclass(frozen=True)
class HausdorffResult:
    """Hausdorff distance between two boundaries, and the resolution they
    were sampled at.

    ``distance`` is the larger of the two directed terms, each the largest
    exact distance from one boundary's samples to the other ellipsoid.  It
    is a lower bound of the true boundary Hausdorff distance, short of it by
    at most the samples' covering radius.  Only the samples whose distance
    bounds can reach the largest one are measured exactly
    (:func:`_hausdorff_max`); the result is that of measuring them all.
    ``resolution`` is the larger of the two samples' maximum
    nearest-neighbor gaps; honest tolerances for comparisons against exact
    geometry should be at least this wide.  It is computed from ``samples``
    on first access, by :func:`_nn_gap`, and then cached.
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
    The distance is the one-pair case of the block kernel
    :func:`_hausdorff_max`, which measures only the samples that can hold
    the maximum: a sample's distance to an ellipsoid of semi-axes a_min to
    a_max lies in [a_min |phi - 1|, a_max |phi - 1|], with phi the
    ellipsoid's gauge, because phi is 1/a_min-Lipschitz and the radial point
    x / phi lies on the boundary.  The result gives the samples' resolution
    on request."""
    check_dims(a, b, "level set")
    check_count(m, 64, "m")
    ca, cb = _boundary_columns(_stack(a), m), _boundary_columns(_stack(b), m)
    distance = _hausdorff_max(_stack(a), ca, _stack(b), cb)[0]
    pa, pb = ca[0].T, cb[0].T
    pa.setflags(write=False)
    pb.setflags(write=False)
    return HausdorffResult(float(distance), (pa, pb))


def _hausdorff_max(a: _Sets, ca: np.ndarray, b: _Sets, cb: np.ndarray) -> np.ndarray:
    """Per pair j of a block, the largest exact distance from the samples
    ``ca[j]`` of a's boundary to b's boundary ellipsoid and from the samples
    ``cb[j]`` of b's to a's: k values, each stack and each sample array
    (columns (k, d, m)) broadcast from k = 1 where one side is shared.

    Every sample gets its eigenframe coordinates and f0 = phi^2 - 1 against
    the other ellipsoid, whose semi-axes run from a_min to a_max.  Its exact
    distance then lies in [a_min |phi - 1|, a_max |phi - 1|]: the gauge phi
    is 1/a_min-Lipschitz and 1 at the nearest boundary point, and the radial
    point x / phi lies on the boundary at most a_max from the center.  So
    only the samples whose upper bound reaches the pair's largest lower
    bound can hold the maximum, within a relative slack of 1e-6 and an
    absolute one of 1e-12 a_max for rounding; they alone take the Newton
    iterations of :func:`_boundary_distances`, all pairs' in one loop, with
    their own semi-axes.  Each point stops on its own step, so the maximum
    has the bits of measuring every sample.
    """
    frames = [_eigenframe(ca, b), _eigenframe(cb, a)]
    gauge_gaps = [np.abs(np.sqrt(f0 + 1.0) - 1.0) for _, _, f0 in frames]
    semi_axes = [np.sqrt(e2[:, [0, -1]]) for _, e2, _ in frames]  # a_min, a_max
    floor = np.maximum(*((axes[:, :1] * gap).max(axis=1)
                         for axes, gap in zip(semi_axes, gauge_gaps)))
    scale = np.maximum(*(axes[:, 1] for axes in semi_axes))
    cut = (floor - 1e-6 * floor - 1e-12 * scale)[:, None]
    ys, e2s, f0s, owners = [], [], [], []
    for (y, e2, f0), axes, gap in zip(frames, semi_axes, gauge_gaps):
        pair, sample = np.nonzero(axes[:, 1:] * gap >= cut)
        ys.append(y[pair, :, sample])
        e2s.append(np.broadcast_to(e2, (len(y), e2.shape[1]))[pair])
        f0s.append(f0[pair, sample])
        owners.append(pair)
    distances = _boundary_distances(np.concatenate(ys).T, np.concatenate(e2s).T,
                                     np.concatenate(f0s))
    best = np.zeros(len(cut))
    np.maximum.at(best, np.concatenate(owners), distances)
    return best


def _offsets(sets: _Sets, center: np.ndarray):
    """The whitened offsets w0 (k, d, 1) of ``center`` from each set's
    center, and the room r^2 - |w0|^2 (k,), positive where the center lies
    strictly inside the boundary ellipsoid."""
    w0 = whiten(sets.low, (center - sets.mu)[..., None])
    return w0, sets.radius_sq - (np.swapaxes(w0, -1, -2) @ w0)[:, 0, 0]


def _radii(low: np.ndarray, w0: np.ndarray, room: np.ndarray, directions: np.ndarray):
    """The stretch [near, far], each (k, directions), of the ray from a center
    along each unit row of ``directions`` inside each ellipsoid of a stack
    (lower factors (k, d, d)), for centers at whitened offsets w0 (k, d, 1)
    with room r^2 - |w0|^2 (k,) (:func:`_offsets`): near = 0 from inside,
    near = far = 0 where a ray misses.

    In whitened coordinates the boundary is the sphere |w| = r, so near and
    far are the roots of |v|^2 rho^2 + 2 (w0 . v) rho - room = 0, clamped at
    0, with v the whitened directions, columns (k, d, directions), and |v|^2
    summed coordinate by coordinate.
    """
    # one C-contiguous (d, directions) block per set, whitened in place; w0' v
    # stays one BLAS product, as a sum of elementwise products rounds otherwise
    v = _whiten_in_place(low, np.repeat(directions.T[None], len(low), axis=0))
    vv = _column_norms(v)
    b = (np.swapaxes(w0, -1, -2) @ v)[:, 0, :]
    k = room[:, None]
    disc = b * b + vv * k
    root = np.sqrt(np.maximum(disc, 0.0))
    # each branch of far is the form of the root without cancellation
    far = (root - b) / vv
    np.divide(k, b + root, out=far, where=b > 0.0)
    near = np.zeros_like(far)
    if room.min() <= 0.0:  # from outside, rays with b < 0 meet it at near, by that form
        far[(disc < 0.0) | (far <= 0.0)] = 0.0
        np.divide(-k, root - b, out=near, where=(k <= 0.0) & (far > 0.0))
    return near, far


def _center_powers(b: _Sets) -> np.ndarray:
    """rho_b(u)^d of the one set ``b`` (k = 1) about its own center, along
    each direction u of the radial rule: shape (1, directions)."""
    d = b.mu.shape[-1]
    m = 2 if d == 1 else RADIAL_ANGLES if d == 2 else SPHERE_DIRECTIONS
    return _radii(b.low, *_offsets(b, b.mu), _sphere_directions(d, m))[1] ** d


def _radial_volumes(a: _Sets, b: _Sets, b_powers: np.ndarray) -> np.ndarray:
    """Volumes of the symmetric differences of each lower set of the stack
    ``a`` with the one set ``b`` (k = 1), by radial quadrature about the
    center c of ``b`` over the whole stack at once: k volumes.  ``b_powers``
    is :func:`_center_powers` of b, which a study computes once for all its
    blocks.

    The ray from c along a unit u runs inside U_b = { mhd >= alpha } on
    [0, rho_b] and inside U_a on [near, far] (:func:`_radii`), so in the
    measure d t^(d-1) dt its part of the symmetric difference is

        near^d + |far^d - rho_b^d|     where near <= rho_b,
        rho_b^d + far^d - near^d       where the two are apart,

    and vol(A delta B) = vol(U_a delta U_b) is 1/d of its integral over the
    unit sphere.  Each of the m directions of :func:`_sphere_directions`
    has the weight |S^(d-1)| / (d m) = 2 pi^(d/2) / Gamma(d/2) / (d m): 1 in
    d = 1, on +1 and -1, an exact sum; h / 2 in d = 2, the trapezoid rule
    over ``RADIAL_ANGLES`` equal angles of step h.  Where c lies inside U_a,
    near = 0 and the integrand is |g|, with g = rho_a^2 - rho_b^2 smooth and
    periodic and a kink where the boundaries cross; each kink gets the
    Euler-Maclaurin correction h^2 B2(s) |g'|, with B2(s) = s^2 - s + 1/6,
    s the kink's place in its step and g' read off the step's ends: within
    4e-10 relative on the shipped convergence config's pairs, 2e-8 on
    eccentric ones.  With c outside a fit, near and far meet at the tangent
    rays as a square root: within about 1e-4 at alpha = 0.9 and 0.99.  In
    d >= 3 the ``SPHERE_DIRECTIONS`` directions give within 1e-5 in d = 3,
    about 0.3% (median) in d = 4 and 5.
    """
    d = a.mu.shape[-1]
    w0, room = _offsets(a, b.mu)
    m = b_powers.shape[1]
    near, far = (x ** d for x in _radii(a.low, w0, room, _sphere_directions(d, m)))
    g = far - b_powers
    ray = np.abs(g)
    if room.min() <= 0.0:  # else near = 0 on every row
        ray = np.where(near <= b_powers, near + ray, b_powers + far - near)
    weight = 2.0 * np.pi ** (d / 2) / math.gamma(d / 2) / (d * m)
    volumes = weight * np.sum(ray, axis=1)
    if d == 2:  # the Euler-Maclaurin correction at each kink
        g_next = np.roll(g, -1, axis=1)
        row, col = np.nonzero(((g < 0.0) != (g_next < 0.0)) & (room > 0.0)[:, None])
        here, there = g[row, col], g_next[row, col]
        s = here / (here - there)
        terms = (s * s - s + 1.0 / 6.0) * np.abs(there - here)
        # one np.sum per row, as in the one-pair case: its order, and so its
        # bits, depend on the count summed
        volumes += weight * np.array([np.sum(terms[row == j]) for j in range(len(room))])
    return volumes


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
    check_dims(a, b, "level set")
    check_count(n_mc, 1_000, "n_mc")
    lo, hi = _union_box(a, b)
    pts = rng.uniforms(n_mc * a.dim).reshape(n_mc, a.dim)
    for k in range(a.dim):  # one pass per axis: a broadcast over short rows is slower
        pts[:, k] *= hi[k] - lo[k]
        pts[:, k] += lo[k]
    frac = float(np.count_nonzero(in_lower_set(pts, a) ^ in_lower_set(pts, b))) / n_mc
    box_vol = float(np.prod(hi - lo))
    return box_vol * frac, box_vol * math.sqrt(frac * (1.0 - frac) / n_mc)
