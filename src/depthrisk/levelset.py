"""Depth lower-level sets and their geometry.

The lower level set at level alpha collects the outlying points

    L(alpha) = { x : mhd(x) <= alpha },

the complement of an open ellipsoid around the model location.  Its
boundary is the ellipsoid of squared Mahalanobis radius 1/alpha - 1.  This
module parametrizes that boundary, measures Hausdorff distances between
boundaries, and estimates symmetric-difference volumes and probabilities by
Monte Carlo.

Volume integrals route through the bounded complements U = { mhd >= alpha }:
membership in exactly one of L_a, L_b is pointwise identical to membership
in exactly one of U_a, U_b, and the U sets fit in a finite box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import directed_hausdorff

from .depth import DepthModel, mhd
from .errors import DimensionMismatch, DomainError
from .io import is_count, is_real
from .rng import RngStream, mix64

BOUNDARY_TOL = 1e-12
_DIRECTION_SEED = 0xD14EC7


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


def _sphere_directions(d: int, m: int) -> np.ndarray:
    """m roughly-equally-spread unit directions in dimension d.

    Equal angles in the plane, a Fibonacci lattice on the 2-sphere, and
    normalized Gaussian directions (fixed internal stream) beyond.
    """
    if d == 1:
        return np.where(np.arange(m) % 2 == 0, 1.0, -1.0).reshape(m, 1)
    if d == 2:
        ang = 2.0 * np.pi * np.arange(m) / m
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if d == 3:
        i = np.arange(m) + 0.5
        polar = np.arccos(1.0 - 2.0 * i / m)
        azim = np.pi * (1.0 + np.sqrt(5.0)) * i
        sp = np.sin(polar)
        return np.column_stack([sp * np.cos(azim), sp * np.sin(azim), np.cos(polar)])
    stream = RngStream(_DIRECTION_SEED, mix64(d, m))
    z = stream.normals(m * d).reshape(m, d)
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    norms[norms == 0.0] = 1.0
    return z / norms[:, None]


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


@dataclass(frozen=True)
class HausdorffResult:
    """Hausdorff distance between two boundary samples, and the resolution
    they were sampled at.

    ``distance`` is the exact Hausdorff distance between the two point sets.
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
    """Two-sided Hausdorff distance between boundaries sampled at m points
    each; the result gives the resolution on request."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"level set dimensions differ: {a.dim} vs {b.dim}")
    if not is_count(m, 64):
        raise DomainError(f"a Hausdorff estimate needs an integer m >= 64, got {m!r}")
    pa = boundary_points(a, m)
    pb = boundary_points(b, m)
    pa.setflags(write=False)
    pb.setflags(write=False)
    d_ab = directed_hausdorff(pa, pb)[0]
    d_ba = directed_hausdorff(pb, pa)[0]
    return HausdorffResult(float(max(d_ab, d_ba)), (pa, pb))


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
