"""Population laws and seedable generation of synthetic risk data.

Two population laws (see :class:`Law`) ship: :class:`GaussianConfig`, a
multivariate normal, and :class:`FrankGumbelConfig`, Gumbel marginals
coupled by a Frank copula and drawn by conditional inversion.  Costs follow
the squared norm of the risk factors plus centered Gaussian noise.

A law draws one block of samples at once, one sample per
:class:`~depthrisk.rng.RngStream`, and each sample is a pure function of its
stream's (seed, stream_id) and the call sequence on that stream.  Each law
also gives its exact tail expectations E[|X|^2 | X in L(alpha)], with no
draws: the Gaussian in closed form, the Frank-Gumbel law by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Protocol

import numpy as np

from .depth import DepthModel
from .errors import (
    AlreadyHasCosts,
    ConfigError,
    DepthRiskError,
    DimensionMismatch,
    DomainError,
    NoMass,
)
from .io import (
    check_count,
    check_finite,
    check_level,
    field_problems,
    fields_from_json,
    is_real,
    json_fields,
    json_float,
    json_floats,
    raise_problems,
)
from .linalg import _column_norms, build_spd, color
from .rng import CHUNK, RngStream, normal_rows, uniform_rows

# Below this magnitude the Frank law takes its independence limit: V = w,
# zero covariance, the product density.  The inversion itself stays within
# 2 * 2**-52 of exact down to |theta| = 1e-300, but the density's
# theta (1 - e^-theta) underflows below about 1e-154.
INDEPENDENCE_THETA = 1e-8

_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max

# The rule of the cost noise variance, read by both laws and attach_costs.
_NOISE_VAR_CHECKS = (
    ("noise_var", is_real, "wrong type"),
    ("noise_var", lambda v: np.isfinite(v) and v >= 0.0, "must be finite and >= 0"),
)


class Law(Protocol):
    """A population law: ``draw(n, streams)`` returns a C-contiguous (k, d, n)
    array, for each of the k streams n iid risk-factor points as columns,
    ``[r]`` drawn from ``streams[r]`` alone, written into ``out`` when one is
    given (see :func:`_check_out`) and otherwise into a fresh array, with
    the same bits either way; ``noise_var`` is the variance of
    the Gaussian noise added to each cost, and ``exact_model`` is the law's
    exact depth model: its mean and covariance.  ``exact_truth(alphas)``
    returns, per level, the tail expectation E[|X|^2 | X in L(alpha)] over
    the lower set of ``exact_model``, computed without draws; it raises
    NoMass where the region holds too little of the law's mass to compute
    it."""

    noise_var: float
    exact_model: DepthModel

    def draw(self, n: int, streams: list[RngStream], out=None) -> np.ndarray: ...

    def exact_truth(self, alphas) -> list[float]: ...


def _chi2_tails(d: int, x: float) -> tuple[float, float]:
    """P(chi2_d > x) and the ratio P(chi2_{d+2} > x) / P(chi2_d > x), in
    closed form by Q_{j+2} = Q_j + p_j with p_j = e^-t t^(j/2) / Gamma(j/2 + 1),
    t = x/2, from Q_0 = 0 or Q_1 = erfc(sqrt(t)) (Abramowitz & Stegun, 26.4).
    The sum s = Q_d / p_d runs down from the top term, so the ratio 1 + 1/s
    holds neither e^-t nor a power of t.  The mass p_d s is formed in logs:
    it is 0 exactly where it underflows."""
    t, h = min(x, float(_HUGE)) / 2.0, d / 2.0  # 1/alpha overflows below alpha = 5.6e-309
    s, b = 0.0, 1.0
    for j in range(d - 2, -1, -2):  # b = p_j / p_d
        b *= (j / 2.0 + 1.0) / t
        s += b
    if d % 2 and t < 700.0:  # Q_1 / p_1
        s += b * math.erfc(math.sqrt(t)) * math.exp(t) * math.sqrt(math.pi / t) / 2.0
    elif d % 2:  # where erfc nears underflow, by its asymptotic series (A&S 7.1.23)
        s += b * float(1.0 + np.cumprod([(0.5 - k) / t for k in range(1, 9)]).sum()) / (2.0 * t)
    # log Q_d <= 0: the clamp takes rounding, and s = inf (t far below d/2)
    mass = math.exp(min(0.0, h * math.log(t) - t - math.lgamma(h + 1.0) + math.log(s)))
    return mass, 1.0 + 1.0 / s


@dataclass(frozen=True)
class GaussianConfig:
    """Multivariate normal law N(mu, sigma); its exact depth model is built with it."""

    mu: tuple[float, ...]
    sigma: tuple[tuple[float, ...], ...]
    noise_var: float = 0.005
    exact_model: DepthModel = field(init=False, repr=False, compare=False)

    _checks = (
        ("mu", lambda v: all(map(is_real, v)), "wrong type"),
        ("mu", lambda v: len(v) > 0 and np.all(np.isfinite(v)), "must be nonempty and finite"),
        ("sigma", lambda v: all(map(is_real, np.asarray(v, dtype=object).ravel())), "wrong type"),
        *_NOISE_VAR_CHECKS,
    )

    def __post_init__(self) -> None:
        raise_problems(field_problems(self._checks, vars(self)))
        try:
            model = DepthModel(self.mu, build_spd(self.sigma))
        except DepthRiskError as exc:
            raise ConfigError(f"sigma: {exc}") from None
        # the moments of the exact truth: refused here rather than an inf there
        with np.errstate(over="ignore"):
            moments = (("mu", model.mu @ model.mu, "squared norm"),
                       ("sigma", np.trace(model.sigma.entries), "trace"))
            raise_problems([f"{name}: its {what} must be finite"
                            for name, value, what in moments if not np.isfinite(value)])
        object.__setattr__(self, "exact_model", model)

    def draw(self, n: int, streams: list[RngStream], out=None) -> np.ndarray:
        return _gaussian_columns(n, self.exact_model, streams, out)

    def exact_truth(self, alphas) -> list[float]:
        """Closed form: X = mu + L z with z standard normal lies in L(alpha)
        where |z|^2 > r^2 = 1/alpha - 1, so the truth is |mu|^2 + tr(Sigma)
        P(chi2_{d+2} > r^2) / P(chi2_d > r^2) (Johnson, Kotz & Balakrishnan,
        1994, ch. 18), the ratio by :func:`_chi2_tails`.  NoMass where
        P(chi2_d > r^2) underflows to 0, a DomainError naming ``sigma`` where
        the truth overflows."""
        model = self.exact_model
        norm_sq = float(model.mu @ model.mu)
        trace = float(np.trace(model.sigma.entries))
        truths = []
        for alpha in map(check_level, alphas):
            mass, ratio = _chi2_tails(model.dim, 1.0 / alpha - 1.0)
            if mass == 0.0:
                raise NoMass(f"P(L(alpha)) underflows at alpha={alpha}")
            truth = norm_sq + trace * ratio
            if not np.isfinite(truth):
                raise DomainError(f"sigma: the tail expectation overflows at alpha={alpha}")
            truths.append(truth)
        return truths

    def to_json(self) -> dict:
        return {
            "kind": "gaussian",
            "mu": list(self.mu),
            "sigma": [list(row) for row in self.sigma],
            "noise_var": self.noise_var,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GaussianConfig":
        table = {
            "mu": json_floats,
            "sigma": lambda rows: tuple(json_floats(row) for row in rows),
            "noise_var": json_float,
        }
        return cls(**_law_fields(cls, obj, table, ("mu", "sigma")))


@dataclass(frozen=True)
class GumbelMarginal:
    """Location-scale parameters of a max-Gumbel marginal.

    The convention is the max-Gumbel CDF exp(-exp(-(x - mu) / beta)), whose
    quantile the law's draw takes (:func:`_gumbel_quantile`).  The law that
    holds a marginal checks it by ``_checks``.
    """

    mu: float
    beta: float

    _checks = (
        ("mu", is_real, "wrong type"),
        ("mu", np.isfinite, "must be finite"),
        ("beta", is_real, "wrong type"),
        ("beta", lambda v: np.isfinite(v) and v > 0, "must be finite and > 0"),
    )


@dataclass(frozen=True)
class FrankGumbelConfig:
    """Bivariate risk-factor law: Frank copula over two Gumbel marginals.

    ``theta`` has no universal default in the modeling literature; shipped
    experiment configs record it explicitly, and 5.0 (moderate positive
    dependence, Kendall tau about 0.457) is the documented choice used in
    the bundled configs.  Draws are seeded by the study that uses the
    config, never by the config itself; its exact depth model is built with it.
    """

    theta: float
    marg1: GumbelMarginal
    marg2: GumbelMarginal
    noise_var: float = 0.005
    exact_model: DepthModel = field(init=False, repr=False, compare=False)

    _checks = (
        ("theta", is_real, "wrong type"),
        ("theta", np.isfinite, "must be finite"),
        ("theta", lambda v: v != 0.0, "must be nonzero"),
        *_NOISE_VAR_CHECKS,
    )

    def __post_init__(self) -> None:
        problems = field_problems(self._checks, vars(self))
        for i, marg in enumerate((self.marg1, self.marg2)):
            problems += field_problems(GumbelMarginal._checks, vars(marg), f"marginals[{i}].")
        raise_problems(problems)
        try:
            object.__setattr__(self, "exact_model", _frank_gumbel_model(self))
        except DepthRiskError as exc:  # a scale whose variance leaves the floats
            raise ConfigError(f"marginals: {exc}") from None

    def draw(self, n: int, streams: list[RngStream], out=None) -> np.ndarray:
        """Each stream draws n uniforms u, then n uniforms w; the point is
        the marginals' quantiles of (u, V), V the Frank conditional
        inversion of w given u (:func:`frank_pair`).  u and w are the two
        halves of each stream's 2n uniforms, drawn in one pass.  V and both
        quantiles are formed ``CHUNK`` columns at a time into the output:
        each is elementwise, and :func:`_frank_v` runs the same operations
        on an element whichever chunk holds it, so the bits do not depend
        on the chunk."""
        n = check_count(n, 1, "n")
        shape = (len(streams), 2, n)
        _check_out(out, shape)
        uw = uniform_rows(streams, 2 * n)
        cols = out
        for start in range(0, n, CHUNK):
            stop = min(start + CHUNK, n)
            # the stream's uniforms already lie in (0, 1): no range checks here
            u, w = uw[:, start:stop], uw[:, n + start : n + stop]
            v = w if abs(self.theta) < INDEPENDENCE_THETA else _frank_v(u, w, self.theta)
            if cols is None:  # after the first chunk's temporaries
                cols = np.empty(shape)
            _gumbel_quantile(u, self.marg1.mu, self.marg1.beta, out=cols[:, 0, start:stop])
            _gumbel_quantile(v, self.marg2.mu, self.marg2.beta, out=cols[:, 1, start:stop])
        return cols

    def exact_truth(self, alphas) -> list[float]:
        """By quadrature of the law's density (see :func:`_frank_gumbel_truths`),
        for |theta| <= 100 (a DomainError naming ``theta`` beyond) and levels
        whose region holds at least 1e-9 of the mass (NoMass below)."""
        return _frank_gumbel_truths(self, [check_level(a) for a in alphas])

    def to_json(self) -> dict:
        return {
            "kind": "frank_gumbel",
            "theta": self.theta,
            "marginals": [asdict(self.marg1), asdict(self.marg2)],
            "noise_var": self.noise_var,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FrankGumbelConfig":
        table = {
            "theta": json_float,
            "marginals": _two_marginals,
            "noise_var": json_float,
        }
        fields = _law_fields(cls, obj, table, ("theta", "marginals"))
        marg1, marg2 = fields.pop("marginals")
        return cls(marg1=marg1, marg2=marg2, **fields)


def _frank_gumbel_model(cfg: FrankGumbelConfig) -> DepthModel:
    """The exact depth model of a Frank-Gumbel law.  With g(u) = -log(-log u),
    coordinate i is mu_i + beta_i g(U_i): mean mu_i + gamma beta_i, variance
    (pi beta_i)^2 / 6.  The covariance is beta_1 beta_2 (E[g(U) g(V)] - gamma^2),
    E[g(U) g(V)] the integral of s g(V) f(s) f(t) with V = _frank_v(F(s), F(t),
    theta) as the sampler draws it, F the standard Gumbel CDF and f its density:
    smooth at every theta, so the trapezoid rule converges geometrically.
    g(V) is formed in one 513 x 513 array, ``CHUNK // 513`` rows at a time:
    it is elementwise, and :func:`_frank_v` runs the same operations on an
    element whichever block holds it, so the bits do not depend on the
    block."""
    cov = 0.0
    if abs(cfg.theta) >= INDEPENDENCE_THETA:
        # [-4, 36] holds all but ~1e-14 of it, and 0 < F(s) < 1 there (F(40) == 1.0)
        s = np.linspace(-4.0, 36.0, 513)
        cdf = np.exp(-np.exp(-s))
        weights = cdf * np.exp(-s) * (s[1] - s[0])  # f(s) ds
        weights[[0, -1]] *= 0.5
        g_v = np.empty((s.size, s.size))
        for start in range(0, s.size, CHUNK // s.size):
            rows = cdf[start : start + CHUNK // s.size, None]
            g_v[start : start + len(rows)] = -np.log(-np.log(_frank_v(rows, cdf[None], cfg.theta)))
        cov = cfg.marg1.beta * cfg.marg2.beta * ((s * weights) @ g_v @ weights - np.euler_gamma**2)
    var = [np.pi**2 / 6 * m.beta * m.beta for m in (cfg.marg1, cfg.marg2)]
    mean = [m.mu + np.euler_gamma * m.beta for m in (cfg.marg1, cfg.marg2)]
    return DepthModel(mean, build_spd([[var[0], cov], [cov, var[1]]]))


# Grids of the Frank-Gumbel truth quadrature, (largest |theta|, angles,
# radial panels of the 24 Gauss-Legendre nodes below): the copula
# concentrates as |theta| grows.  Each grid agrees with one twice as fine in
# both directions to 3e-12 relative, at 56 values of theta from 1e-3 to 100
# in magnitude and at every level from 0.9999 down to the first whose region
# holds less than _TRUTH_MASS_FLOOR of the mass.
_FRANK_TRUTH_GRIDS = ((6.0, 512, 4), (40.0, 1024, 4), (100.0, 2048, 8))
_TRUTH_NODES, _TRUTH_WEIGHTS = np.polynomial.legendre.leggauss(24)
_TRUTH_MASS_FLOOR = 1e-9


def _frank_gumbel_truths(cfg: FrankGumbelConfig, levels) -> list[float]:
    """E[|X|^2 | X in L(alpha)] of a Frank-Gumbel law at each level.

    In the exact model's whitened frame z = L^-1 (x - mean) the region is
    |z| >= r = sqrt(1/alpha - 1), so each level integrates the density in
    polar coordinates from r out: the trapezoid rule in the angle,
    Gauss-Legendre panels in the radius, panel edges r + e^(k h) - 1.  Each
    ray ends where it leaves the box [-4, 50]^2 of the standard Gumbel
    variates s_i = gamma + (L z)_i / beta_i, which holds all but 1e-21 of the
    mass.  The integrand is smooth up to the circle |z| = r, so both rules
    converge geometrically.

    The rays are taken max(1, ``CHUNK`` // nodes per ray) at a time, and
    each ray's integrals of 1, |z| and |z|^2 over the radius are written
    into per-ray arrays: every step is elementwise or a sum over one ray's
    contiguous row of nodes, so the bits do not depend on the chunk.  The
    mass check, the totals and the moments then take all rays at once.
    """
    grid = next((g for g in _FRANK_TRUTH_GRIDS if abs(cfg.theta) <= g[0]), None)
    if grid is None:
        limit = _FRANK_TRUTH_GRIDS[-1][0]
        raise DomainError(f"theta: the exact truth needs |theta| <= {limit:g}, got {cfg.theta!r}")
    _, angles, panels = grid
    model = cfg.exact_model
    low = model.sigma.chol
    beta = np.array([cfg.marg1.beta, cfg.marg2.beta])
    phi = 2.0 * np.pi / angles * np.arange(angles)
    ray = np.stack([np.cos(phi), np.sin(phi)])  # (2, angles) unit directions
    slope = (low @ ray) / beta[:, None]  # ds_i / d|z| along each ray
    with np.errstate(divide="ignore"):
        ends = np.min(np.where(slope > 0, 50.0 - np.euler_gamma, 4.0 + np.euler_gamma)
                      / np.abs(slope), axis=0)
    scale = low[0, 0] * low[1, 1] / (beta[0] * beta[1]) * (2.0 * np.pi / angles)
    fractions = np.linspace(0.0, 1.0, panels + 1)
    rays = max(1, CHUNK // (panels * _TRUTH_NODES.size))
    truths = []
    for alpha in levels:
        r = np.sqrt(1.0 / alpha - 1.0)
        # per ray, the integrals of 1, |z| and |z|^2 over the radius
        ray_mass, ray_first, ray_second = np.empty((3, angles))
        for start in range(0, angles, rays):
            part = slice(start, start + rays)
            steps = np.log1p(np.maximum(ends[part] - r, 0.0))[:, None] * fractions
            edges = r + np.expm1(steps)  # (rays, panels + 1)
            half = 0.5 * np.diff(edges, axis=1)[..., None]
            rho = (edges[:, :-1, None] + half + half * _TRUTH_NODES).reshape(len(edges), -1)
            w = (half * _TRUTH_WEIGHTS).reshape(len(edges), -1) * rho  # quadrature weight x |z|
            w *= _frank_gumbel_pdf(
                np.euler_gamma + slope[0][part, None] * rho,
                np.euler_gamma + slope[1][part, None] * rho,
                cfg.theta,
            )
            ray_mass[part] = np.sum(w, axis=1)
            ray_first[part] = np.sum(w * rho, axis=1)
            ray_second[part] = np.sum(w * np.square(rho), axis=1)
        total = float(np.sum(ray_mass))
        if not scale * total >= _TRUTH_MASS_FLOOR:  # P(L(alpha))
            raise NoMass(f"P(L(alpha)) is below {_TRUTH_MASS_FLOOR:g} at alpha={alpha}")
        first = low @ (ray @ ray_first)  # E[L z; L(alpha)] / scale
        second = np.einsum("ij,jk,ik->", low, (ray * ray_second) @ ray.T, low)  # E[|L z|^2; ...]
        truths.append(float(model.mu @ model.mu + (2.0 * model.mu @ first + second) / total))
    return truths


def _frank_gumbel_pdf(s: np.ndarray, t: np.ndarray, theta: float) -> np.ndarray:
    """The density of standard Gumbel variates (s, t) under the Frank copula,
    c(F(s), F(t)) f(s) f(t), for s and t in [-4, 50] and |theta| <= 100.

    c(u, v) = theta (1 - e^-theta) e^(-theta (u + v)) / D^2 with D = (1 -
    e^-theta) - (1 - e^(-theta u)) (1 - e^(-theta v)) (Genest, 1987), and
    D e^(theta (u + v) / 2) = e^(theta (v - u) / 2) (1 - e^(-theta v)) +
    e^(theta (u - v) / 2) (1 - e^(-theta (1 - v))): two terms of one sign,
    so no cancellation at either sign of theta.  1 - u and 1 - v are formed
    directly, so the density keeps its precision as u and v approach 1.
    """
    e_s, e_t = np.exp(-s), np.exp(-t)
    pdf = np.exp(-(s + e_s + t + e_t))  # f(s) f(t)
    if abs(theta) < INDEPENDENCE_THETA:
        return pdf
    u_bar, v_bar = -np.expm1(-e_s), -np.expm1(-e_t)  # 1 - F(s), 1 - F(t)
    half = np.exp(0.5 * theta * (u_bar - v_bar))
    d = -np.expm1(-theta * (1.0 - v_bar)) * half + -np.expm1(-theta * v_bar) / half
    pdf *= theta * -np.expm1(-theta)
    pdf /= d * d
    return pdf


def _two_marginals(value) -> tuple[GumbelMarginal, GumbelMarginal]:
    """The marginals of a JSON list of two objects; item i's problems under ``[i].``."""
    objects = isinstance(value, (list, tuple)) and all(isinstance(m, dict) for m in value)
    if not (objects and len(value) == 2):
        raise DomainError("expected a list of two objects")
    table = {"mu": json_float, "beta": json_float}
    problems: list[str] = []
    margs = [json_fields(m, table, tuple(table), problems, f"[{i}].") for i, m in enumerate(value)]
    for i, fields in enumerate(margs):
        problems += field_problems(GumbelMarginal._checks, fields, f"[{i}].")
    raise_problems(problems)
    return GumbelMarginal(**margs[0]), GumbelMarginal(**margs[1])


_LAWS = {"gaussian": GaussianConfig, "frank_gumbel": FrankGumbelConfig}
# Why a law refuses a key that a reader may expect: a law takes no seed.
_LAW_HINTS = {"seed": " (a study is seeded by its master_seed)"}


def _law_fields(cls, obj: dict, table: dict, required) -> dict:
    """:func:`~depthrisk.io.fields_from_json` of a law's JSON object, whose
    ``kind`` (read by :func:`law_from_json`) is not a field."""
    obj = {k: v for k, v in obj.items() if k != "kind"}
    return fields_from_json(cls, obj, table, required, _LAW_HINTS)


def law_from_json(obj) -> Law:
    """The population law a parsed JSON object names by its ``kind``."""
    if not isinstance(obj, dict):
        raise TypeError("expected an object")
    if obj.get("kind") not in _LAWS:
        raise ConfigError(f"kind: must be {' or '.join(repr(k) for k in _LAWS)}")
    return _LAWS[obj["kind"]].from_json(obj)


class Sample:
    """An n-by-d matrix of finite observations, optionally with finite costs.

    Attributes
    ----------
    points : ndarray, shape (n, d), read-only
    costs : ndarray, shape (n,), read-only, or None

    A float array handed in that the caller can still write to, or a view,
    is copied (in F order if it is F-contiguous, C order otherwise), so the
    caller's array stays writable; a read-only float array that owns its
    data is kept as it is.
    """

    __slots__ = ("points", "costs")

    def __init__(self, points, costs=None):
        pts = check_finite(points, "points")
        if pts.ndim != 2 or 0 in pts.shape:
            raise DimensionMismatch(f"points must be a nonempty (n, d) array, got {pts.shape}")
        if costs is not None:
            vals = check_finite(costs, "costs")
            if vals.shape != (pts.shape[0],):
                raise DimensionMismatch(f"costs must have shape ({len(pts)},), got {vals.shape}")
            costs = _read_only(vals, costs)
        self.points = _read_only(pts, points)
        self.costs = costs

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __repr__(self) -> str:  # pragma: no cover
        tag = "with costs" if self.costs is not None else "no costs"
        return f"Sample(n={self.n}, dim={self.dim}, {tag})"


def _read_only(arr: np.ndarray, given) -> np.ndarray:
    """``arr``, made of ``given`` by :func:`~depthrisk.io.check_finite`,
    read-only; copied first (``order="A"``) if it is a view or the caller's
    own writable ``given``, as :class:`Sample` documents."""
    if not arr.flags.owndata or (arr is given and arr.flags.writeable):
        arr = arr.copy(order="A")
    arr.setflags(write=False)
    return arr


def _as_open_unit(p, name: str) -> np.ndarray:
    arr = check_finite(p, name)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"{name} must lie strictly inside (0, 1)")
    return arr


def _gumbel_quantile(p: np.ndarray, mu: float, beta: float, out: np.ndarray) -> None:
    """The max-Gumbel quantile Q(p) = mu - beta ln(-ln p) of ``p`` into
    ``out``, unchecked: ``p`` lies in (0, 1) and is overwritten, and (mu,
    beta) follow :class:`GumbelMarginal`'s rules.  Q(exp(-1)) is mu exactly:
    log(exp(-1.0)) rounds to -1.0, so the outer log is log(1.0) == 0.0."""
    np.log(p, out=p)
    np.negative(p, out=p)
    np.log(p, out=p)
    p *= beta
    np.subtract(mu, p, out=out)


def frank_pair(u, w, theta: float):
    """Couple uniforms into a Frank-copula pair by conditional inversion.

    Given U = u and an independent uniform w, the second coordinate is the
    conditional quantile V = C^{-1}_{v|u}(w), computed in closed form:

        V = log1p( w (1 - e^{-a}) / (w e^{-a} + (1 - w) e^{-a t}) ) / a

    with a = |theta|, t = u for theta > 0 and t = 1 - u for theta < 0,
    which solves dC/du (u, V) = w for the Frank copula C.

    Parameters
    ----------
    u, w : float or array_like
        Uniform draws, strictly inside (0, 1).
    theta : float
        Dependence parameter, finite and nonzero (:class:`FrankGumbelConfig`'s
        rule).  Magnitudes below 1e-8 are routed to the exact independence
        limit (V = w).  At every other finite theta V keeps its relative
        precision: within 8 * 2**-52 of exact on stream uniforms, the
        interval's edges and u within 1e-12 of 0 or 1.

    Returns
    -------
    (u, v) : pair of floats or ndarrays, each strictly inside (0, 1)

    Raises
    ------
    DomainError
        If u or w leaves (0, 1), or theta is not a finite nonzero number.
    """
    raise_problems(field_problems(FrankGumbelConfig._checks, {"theta": theta}), DomainError)
    scalar = np.isscalar(u) and np.isscalar(w)
    uu = _as_open_unit(u, "u")
    ww = _as_open_unit(w, "w")
    if abs(theta) < INDEPENDENCE_THETA:
        return (u, w) if scalar else (uu, ww)
    v = _frank_v(uu, ww, theta)
    if scalar:
        return float(uu), float(v)
    return uu, v


def _frank_v(u: np.ndarray, w: np.ndarray, theta: float) -> np.ndarray:
    """V of :func:`frank_pair`, unchecked: ``u`` and ``w`` (only read, and
    broadcast together) lie in (0, 1), and ``theta`` is finite and nonzero.

    V = log1p(x) / a with a = |theta|, x = w (1 - e^-a) / D and D = w e^-a +
    (1 - w) e^(-a t), t = u for theta > 0 and 1 - u for theta < 0.  Every
    term is positive, so nothing cancels; 1 - u is exact for u >= 1/2, so
    a t keeps its precision as u approaches 1.  D is at least e^-a / 2, a
    normal float for a <= 700; beyond, the entries whose D falls below
    ``tiny`` take log x by ``logaddexp`` instead.
    """
    shape = np.broadcast_shapes(u.shape, w.shape)
    a = abs(theta)
    t = u if theta > 0 else 1.0 - u
    d, v = np.empty(shape), np.empty(shape)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        np.multiply(t, -a, out=d)
        np.exp(d, out=d)
        np.subtract(1.0, w, out=v)
        d *= v
        np.multiply(w, np.exp(-a), out=v)
        d += v  # D
        np.multiply(w, -np.expm1(-a), out=v)
        v /= d  # x
        np.log1p(v, out=v)
        v /= a
        if a > 700.0:  # here 1 - e^-a rounds to 1, so log x = log w - log D
            spill = d < _TINY
            ws, ts = np.broadcast_to(w, shape)[spill], np.broadcast_to(t, shape)[spill]
            log_w = np.log(ws)
            log_x = log_w - np.logaddexp(log_w - a, np.log1p(-ws) - a * ts)
            v[spill] = np.logaddexp(0.0, log_x) / a
    # quantiles within half an ulp of an endpoint round onto it; pin those
    # to the open interval the uniform generator itself uses
    return np.clip(v, 2.0**-53, 1.0 - 2.0**-53, out=v)


def sample_risk_factors(n: int, cfg: FrankGumbelConfig, rng: RngStream) -> Sample:
    """Draw n Frank-coupled Gumbel risk-factor points in the plane.

    Coordinate i follows the max-Gumbel law of ``cfg.marg_i``; the joint
    dependence is Frank with ``cfg.theta``.  The one-stream case of
    ``cfg.draw``; deterministic given the stream.
    """
    pts = cfg.draw(n, [rng])[0].T.copy()  # (n, 2), C order
    pts.setflags(write=False)  # so Sample keeps it without a second copy
    return Sample(pts)


def attach_costs(s: Sample, noise_var: float, rng: RngStream) -> Sample:
    """Return a new sample with costs |x|^2 + eps, eps iid N(0, noise_var).

    With ``noise_var == 0`` the costs are exactly the squared norms and the
    stream is not consumed.

    Raises
    ------
    AlreadyHasCosts
        If ``s`` already carries costs.
    DomainError
        If ``noise_var`` is not a finite number >= 0 (the laws' rule).
    """
    if s.costs is not None:
        raise AlreadyHasCosts("sample already has costs attached")
    raise_problems(field_problems(_NOISE_VAR_CHECKS, {"noise_var": noise_var}), DomainError)
    return Sample(s.points, _noisy_costs(s.points.T[None], noise_var, [rng])[0])


def _noisy_costs(cols: np.ndarray, noise_var: float, streams: list[RngStream]) -> np.ndarray:
    """The (k, n) costs :func:`attach_costs` gives the columns of each of the
    k samples ``cols`` (shape (k, d, n)), ``[r]`` with noise from
    ``streams[r]``; unchecked."""
    costs = _column_norms(cols)
    if noise_var != 0.0:
        costs += np.sqrt(noise_var) * normal_rows(streams, cols.shape[-1])
    return costs


def sample_gaussian(n: int, model: DepthModel, rng: RngStream) -> Sample:
    """Draw n iid points from N(mu, Sigma) via the Cholesky transform: the
    one-stream case of :class:`GaussianConfig`'s ``draw``."""
    # a view in F order, the layout the first release drew them in, which
    # Sample copies once in that layout
    return Sample(_gaussian_columns(n, model, [rng])[0].T)


def _gaussian_columns(n: int, model: DepthModel, streams: list[RngStream],
                      out=None) -> np.ndarray:
    """The (k, d, n) columns of n points of N(mu, Sigma) per stream, in
    ``out`` if given (:func:`_check_out`): each stream's n * d normals,
    read as n points of d coordinates, colored by the Cholesky factor
    ``CHUNK`` points at a time.  Each point's coloring is elementwise, so
    its bits do not depend on the chunk."""
    n = check_count(n, 1, "n")
    d = model.dim
    shape = (len(streams), d, n)
    _check_out(out, shape)
    z = normal_rows(streams, n * d).reshape(len(streams), n, d).transpose(0, 2, 1)
    cols = np.empty(shape) if out is None else out
    for start in range(0, n, CHUNK):
        chunk = cols[..., start : start + CHUNK]
        color(model.sigma.chol, z[..., start : start + CHUNK], out=chunk)
        chunk += model.mu[:, None]
    return cols


def _check_out(out, shape: tuple) -> None:
    """The rule of a law's ``draw`` for its ``out``: None, or a writable
    C-contiguous float64 ndarray of ``shape`` (DimensionMismatch otherwise),
    checked before any stream is read."""
    if out is None:
        return
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable):
        raise DimensionMismatch(
            f"out must be a writable C-contiguous float64 array of shape {shape}")
