"""Conditional tail expectation of costs over depth-based risk regions.

The target quantity is E[Y | X in L(alpha)]: the expected cost given that
the risk factors fall in the depth lower-level set.  The plug-in estimator
has two stages.  It fits the depth model on one sample (the fitting core
:func:`~depthrisk.depth.fit_columns`), then averages the costs of a second,
independent sample over the estimated region (one ratio kernel):

    ccte_hat = sum_i Y_i 1{X_i in L_n(alpha)} / sum_i 1{X_i in L_n(alpha)}

with the convention 0/0 = 0 when no cost point lands in the region (the
estimate is then flagged degenerate rather than an error, since that event
has vanishing probability as samples grow).  :func:`ccte_hat` runs both
stages on one pair of samples, :func:`ccte_under_model` the second stage
alone; the replication study runs the same core and kernel on blocks of
replicates and sequences of levels.

The studies score estimates against each law's exact truth
(``exact_truth``, computed without draws).  :func:`ccte_true_oracle` is the
independent Monte Carlo check of those truths: a large ratio estimate under
the exact population model, with a delta-method standard error.  It draws
every batch into buffers allocated once per call and scores it in
cache-sized chunks, so its memory does not grow with ``n_mc``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .depth import DepthModel, _column_depths, fit_model
from .errors import DomainError, MissingCosts, NoMass
from .io import check_count, check_dims, check_level
from .levelset import depth_in_lower_set
from .linalg import _column_norms, build_spd
from .rng import CHUNK, RngStream
from .sampling import GaussianConfig, Law, Sample

# Rows per batch of a population pass (the oracle's and
# estimate_population_model's).  The oracle draws each batch into buffers it
# allocates once per call, 8 d + 8 + (levels) bytes per row, and scores it
# CHUNK columns at a time.  It also fixes which Philox words of the oracle's
# stream pair up in Box-Muller, so changing it changes the oracle's draws.
BATCH_ROWS = 1 << 18


@dataclass(frozen=True)
class CcteEstimate:
    """One tail-expectation estimate and its bookkeeping.

    ``hits`` counts cost points inside the estimated region; ``degenerate``
    marks the 0/0 convention (value forced to 0.0).
    """

    value: float
    n1: int
    n2: int
    alpha: float
    hits: int
    degenerate: bool

    def to_json(self) -> dict:
        return asdict(self)


def ccte_under_model(
    model: DepthModel, cost_sample: Sample, alpha: float, n1: int
) -> CcteEstimate:
    """Tail-expectation ratio under a given depth model.

    This is the estimator's second stage (and a seam for tests and oracles):
    membership of the cost points is evaluated under ``model`` rather than a
    freshly fitted one.  ``n1`` (an integer >= 1) is recorded as the size of
    whatever sample produced the model.
    """
    if cost_sample.costs is None:
        raise MissingCosts("cost sample has no costs attached")
    check_dims(model, cost_sample, "model and cost point")
    check_count(n1, 1, "n1")
    levels = [check_level(alpha)]
    values, hits = _ratio_under_models(
        model.mu[None],
        model.sigma.chol[None],
        cost_sample.points.T[None],
        cost_sample.costs[None],
        levels,
    )
    hit_count = int(hits[0, 0])
    return CcteEstimate(
        float(values[0, 0]), int(n1), cost_sample.n, levels[0], hit_count, hit_count == 0
    )


def _ratio_under_models(mu, low, cost_cols, costs, levels):
    """The ratio kernel.  Per level i and replicate r, the mean of
    ``costs[r]`` (shape (k, n2)) over the columns of ``cost_cols[r]`` (shape
    (k, d, n2)) in the lower set at ``levels[i]`` of the model (``mu[r]``,
    lower Cholesky factor ``low[r]``); 0.0 where none is in (the 0/0
    convention).  Returns (values, hits), each of shape (levels, k).

    The depths of each replicate's cost points are computed once by the
    column-depth step that :func:`~depthrisk.depth.mhd` takes, so a cost
    point's depth has mhd's bits whatever n2; they are then thresholded per
    level, each taken as a float.  Per level, the members of
    the whole block are compacted at once: their flat indices, in order, and
    their costs gathered into one array, in which replicate r's members are
    one contiguous slice.  Each slice gets one ``np.add.reduce``, the
    pairwise sum that ``np.sum`` of that replicate's boolean-indexed members
    would give, so the bits are those of scoring each replicate alone.
    Inputs are not checked: the callers do that.
    """
    depth = _column_depths(low, cost_cols, mu)
    k, n2 = depth.shape
    flat_costs = np.ravel(costs)
    row_starts = np.arange(0, k * n2 + 1, n2)
    values = np.zeros((len(levels), k))
    hits = np.zeros((len(levels), k), dtype=np.intp)
    # one (k, n2) mask at a time, never one per level at once
    for i, a in enumerate(levels):
        where = np.flatnonzero(depth_in_lower_set(depth, float(a)))
        picked = flat_costs[where]
        bounds = np.searchsorted(where, row_starts)
        np.subtract(bounds[1:], bounds[:-1], out=hits[i])
        sums = [np.add.reduce(picked[s:e]) for s, e in zip(bounds[:-1], bounds[1:])]
        np.divide(sums, hits[i], out=values[i], where=hits[i] > 0)
    return values, hits


def ccte_hat(level_sample: Sample, cost_sample: Sample, alpha: float) -> CcteEstimate:
    """Two-sample plug-in tail expectation estimate.

    Fits the depth model on ``level_sample`` (:func:`~depthrisk.depth.fit_model`)
    and averages the costs of ``cost_sample`` over its estimated lower set
    (:func:`ccte_under_model`, with ``n1`` the level sample's size).  The two
    samples must be drawn independently (caller contract).

    Raises
    ------
    DegenerateSample
        If the level sample cannot support a positive definite covariance.
    MissingCosts
        If the cost sample carries no costs.
    """
    if cost_sample.costs is None:
        raise MissingCosts("cost sample has no costs attached")
    return ccte_under_model(fit_model(level_sample), cost_sample, alpha, level_sample.n)


def gaussian_population(model: DepthModel) -> GaussianConfig:
    """The law N(mu, Sigma) of ``model``: same mu and Cholesky factor bits."""
    mu, sigma = model.mu.tolist(), model.sigma.entries.tolist()
    return GaussianConfig(tuple(mu), tuple(map(tuple, sigma)))


def estimate_population_model(
    draw: Callable[[int, RngStream], np.ndarray], n_mc: int, rng: RngStream
) -> DepthModel:
    """Approximate a population's (mu, Sigma) by a large Monte Carlo fit.

    No library path calls it: every law has an exact model.  Accumulates sums
    over batches of at most ``BATCH_ROWS`` (n, d) points of ``draw``, in
    order, and normalizes the covariance by 1/(n-1), matching
    :func:`~depthrisk.depth.fit_model`.
    """
    check_count(n_mc, 2, "n_mc")
    sum_x = sum_xx = 0.0
    for start in range(0, n_mc, BATCH_ROWS):
        pts = np.asarray(draw(min(BATCH_ROWS, n_mc - start), rng), dtype=float)
        sum_x += pts.sum(axis=0)
        sum_xx += pts.T @ pts
    mean = sum_x / n_mc
    cov = (sum_xx - n_mc * np.outer(mean, mean)) / (n_mc - 1)
    return DepthModel(mean, build_spd(cov))


def ccte_true_oracle(law: Law, alpha, n_mc: int, rng: RngStream):
    """Monte Carlo ground truth for the tail expectation, with standard error.

    Draws ``n_mc`` points by ``law.draw`` on the one stream ``rng``,
    applies the noise-free cost map R(x) = |x|^2, and forms the ratio
    estimator over exact membership in L(alpha) under ``law.exact_model``.
    The standard error is the delta-method expansion of the ratio; ``n_mc``
    must be at least 1e5 for a meaningful standard error.

    ``alpha`` is one level or a sequence of levels.  All levels share one
    pass over batches of ``BATCH_ROWS`` points.  A call allocates one column
    buffer, one cost buffer and one membership row per level, and draws
    every batch into them (``out`` of ``law.draw``); no array of one batch
    outlives it.  Each batch is scored ``CHUNK`` columns at a time: depths
    (mhd's column step), costs and each level's membership.  Then a level's
    member costs are gathered by their indices (``np.flatnonzero``), the
    values and order that boolean indexing gives, and summed once per
    batch, so the sums keep their bits.  One level returns ``(value, se)``;
    a sequence returns a list of them in order, each equal to the one-level
    call on the same stream.

    Raises
    ------
    NoMass
        If not a single draw lands in the region of some level.
    """
    if np.ndim(alpha) > 1 or np.size(alpha) == 0:
        raise DomainError("alpha must be one level or a nonempty sequence of levels")
    levels = [check_level(a) for a in np.atleast_1d(alpha).tolist()]
    check_count(n_mc, 100_000, "n_mc")
    d, rows = law.exact_model.dim, min(BATCH_ROWS, n_mc)
    cols, cost = np.empty(d * rows), np.empty(rows)
    member = np.empty((len(levels), rows), dtype=bool)
    # per level: hits, sum and sum of squares of the member costs, added up
    # batch by batch in a fixed order: deterministic
    totals = [(0.0, 0.0, 0.0)] * len(levels)
    for start in range(0, n_mc, BATCH_ROWS):
        m = min(BATCH_ROWS, n_mc - start)
        batch = law.draw(m, [rng], out=cols[: d * m].reshape(1, d, m))[0]
        sums = _batch_sums(law.exact_model, batch, cost[:m], member[:, :m], levels)
        totals = [tuple(t + s for t, s in zip(total, part)) for total, part in zip(totals, sums)]
    results = []
    for a, (count, s1, s2) in zip(levels, totals):
        if count == 0:
            raise NoMass(f"no draw out of {n_mc} landed in the level set at alpha={a}")
        results.append(_ratio_with_se(count, s1, s2, n_mc))
    return results[0] if np.ndim(alpha) == 0 else results


def _batch_sums(model: DepthModel, cols, cost, member, levels) -> list[tuple]:
    """Per level, the hits, sum and sum of squares of the costs of the
    columns of ``cols`` (d, m) in its lower set of ``model``.  The costs and
    the memberships (a row of ``member`` per level) are written into the
    caller's buffers ``CHUNK`` columns at a time; every temporary is freed
    on return."""
    for start in range(0, cols.shape[1], CHUNK):
        chunk = cols[:, start : start + CHUNK]
        depth = _column_depths(model.sigma.chol, chunk, model.mu)
        _column_norms(chunk, out=cost[start : start + CHUNK])
        for row, a in zip(member, levels):
            depth_in_lower_set(depth, a, out=row[start : start + CHUNK])
    sums = []
    for row in member:
        hit_cost = cost[np.flatnonzero(row)]  # the index array freed at once
        sums.append((float(hit_cost.size), float(np.sum(hit_cost)),
                     float(np.sum(hit_cost * hit_cost))))
    return sums


def _ratio_with_se(count_in: float, sum_cost: float, sum_cost_sq: float, total: int):
    """Ratio mean(R 1_A) / mean(1_A) and its delta-method standard error."""
    value = sum_cost / count_in
    p_in = count_in / total
    mean_y = sum_cost / total
    var_y = sum_cost_sq / total - mean_y * mean_y
    var_n = p_in * (1.0 - p_in)
    cov_yn = mean_y - mean_y * p_in
    var_ratio = (var_y - 2.0 * value * cov_yn + value * value * var_n) / (
        total * p_in * p_in
    )
    return value, float(np.sqrt(max(var_ratio, 0.0)))
