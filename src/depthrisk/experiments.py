"""Seeded studies of how fast the plug-in estimators converge.

A replication study draws repeated two-part samples from a fixed population,
estimates the depth-conditioned expectation on each replicate, and
aggregates per-cell error statistics against the law's exact truth, which
takes no draws.  A convergence study fits depth models to samples of
growing size from a population law and measures three distances from each
fit to the law's exact model.  All randomness descends from one master seed
through tagged substreams, so reruns (and threaded runs) reproduce output
files byte for byte.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from ._version import __version__
from .ccte import _ratio_under_models
from .depth import DepthModel, _sup_norms, fit_columns
from .errors import DomainError, NonPositiveStatistic
from .io import (
    atomic_write_text,
    check_count,
    check_finite,
    check_level,
    csv_text,
    field_problems,
    fields_from_json,
    is_count,
    is_real,
    json_float,
    json_floats,
    json_int,
    json_ints,
    make_out_dir,
    raise_problems,
)
from .levelset import (
    LevelSetSpec,
    _boundary_columns,
    _center_powers,
    _hausdorff_measure,
    _hausdorff_screen,
    _radial_volumes,
    _Sets,
    _stack,
)
from .rng import RngStream, mix64
from .sampling import _LAW_HINTS, Law, _noisy_costs, law_from_json

# Substream tags.  Each purpose gets a distinct tag so no two draws in a
# study can collide even when (n, replicate) pairs repeat.
_TAG_REPLICATE = 3
_TAG_CONV_SAMPLE = 101

# Points per block of replicates (or of convergence seeds) that a study
# draws, fits and scores in one pass (see _blocks): small enough that a
# block's temporaries stay within a 2 MB L2 cache.  A replication block is
# also the unit of scheduling: one pool task each.
BLOCK_ROWS = 1 << 16

# Blocks per solve group of a convergence study (run_convergence): enough to
# amortise its small solves, few enough to bound what a group holds.
_SOLVE_GROUP_BLOCKS = 4

# The rules of the fields both study configs have.
_DATA_CFG_CHECK = (
    "data_cfg", lambda v: isinstance(getattr(v, "exact_model", None), DepthModel)
    and all(callable(getattr(v, m, None)) for m in ("draw", "exact_truth")),
    "must be a law with an exact_model DepthModel, a draw and an exact_truth method")
_N_VALUES_CHECK = ("n_values",
                   lambda v: all(is_count(n, 2) for n in v) and 0 < len(v) == len(set(v)),
                   "must be a nonempty list of distinct integers >= 2")
# RngStream reads a seed's low 64 bits, so a larger seed would repeat a smaller one's study
_MASTER_SEED_CHECK = ("master_seed", lambda v: is_count(v, 0) and v < 2**64,
                      "must be an integer in [0, 2**64)")
# Why a study config refuses a key at its top level that a reader may expect.
_STUDY_HINTS = dict(_LAW_HINTS, model=" (a study reads its population law from data)")


def _check_study(cfg) -> None:
    """The ``__post_init__`` of both study configs: one ConfigError naming
    the problems of the fields by the config's ``_checks`` or, when they
    have none, of sample sizes below d + 1, the fewest points a fit of the
    law's dimension d takes (a study would raise DegenerateSample at the
    first such size, after the sizes before it had run)."""
    problems = field_problems(cfg._checks, vars(cfg))
    if not problems and min(cfg.n_values) <= (d := cfg.data_cfg.exact_model.dim):
        problems = [f"n_values: must be integers >= d + 1 = {d + 1} for a {d}-dimensional model"]
    raise_problems(problems)


SUMMARY_HEADER = "n,alpha,truth,truth_se,mean,sigma_hat,rmae,degenerate_count"
RATES_HEADER = "n,alpha,delta,V"
CONVERGENCE_STATS = ("supnorm", "hausdorff", "symdiff")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a replication study.

    ``data_cfg`` is the population law; the study reads its ``draw``,
    ``noise_var``, ``exact_model`` (a DepthModel) and ``exact_truth``.
    ``delta_values`` may be empty (the rate table is then header-only); the
    sample sizes and levels may not be.  None of the three may repeat, and
    no sample size may be below d + 1, the fewest points a fit takes.

    ``truth_n_mc`` is accepted, checked and echoed, but no study reads it:
    the truths are exact (``data_cfg.exact_truth``), with no Monte Carlo pass.
    """

    data_cfg: Law
    n_values: tuple[int, ...]
    alpha_values: tuple[float, ...]
    replications: int
    delta_values: tuple[float, ...] = ()
    truth_n_mc: int = 1_000_000
    master_seed: int = 0

    _checks = (
        _DATA_CFG_CHECK,
        _N_VALUES_CHECK,
        ("alpha_values", lambda v: all(check_level(a) for a in v) and 0 < len(v) == len(set(v)),
         "must be a nonempty list of distinct levels in (0, 1)"),
        ("delta_values", lambda v: all(map(is_real, v)), "wrong type"),
        ("delta_values", lambda v: np.all(np.isfinite(v)), "must be finite"),
        ("delta_values", lambda v: len(v) == len(set(v)), "must be a list of distinct numbers"),
        ("replications", lambda v: is_count(v, 2), "must be an integer >= 2"),
        ("truth_n_mc", lambda v: is_count(v, 100_000), "must be an integer >= 100000"),
        _MASTER_SEED_CHECK,
    )

    __post_init__ = _check_study


def config_to_json(cfg: ExperimentConfig) -> dict:
    return {
        "data": cfg.data_cfg.to_json(),
        "n_values": list(cfg.n_values),
        "alpha_values": list(cfg.alpha_values),
        "replications": cfg.replications,
        "delta_values": list(cfg.delta_values),
        "truth_n_mc": cfg.truth_n_mc,
        "master_seed": cfg.master_seed,
    }


def config_from_json(obj: dict) -> ExperimentConfig:
    """Build a study config from parsed JSON.

    Raises ConfigError naming every problem found in one message, so a bad
    file can be fixed in a single edit pass.
    """
    table = {
        "data": law_from_json,
        "n_values": json_ints,
        "alpha_values": json_floats,
        "replications": json_int,
        "delta_values": json_floats,
        "truth_n_mc": json_int,
        "master_seed": json_int,
    }
    required = ("data", "n_values", "alpha_values", "replications")
    fields = fields_from_json(ExperimentConfig, obj, table, required, _STUDY_HINTS)
    return ExperimentConfig(data_cfg=fields.pop("data"), **fields)


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of all replicates at one (n, alpha) cell."""

    n: int
    alpha: float
    truth: float
    truth_se: float
    estimates: np.ndarray
    mean: float
    sigma_hat: float
    rmae: float
    degenerate_count: int


@dataclass(frozen=True)
class ReplicationReport:
    config: ExperimentConfig
    cells: tuple[CellResult, ...]
    wall_clock_seconds: float = field(default=0.0, compare=False)

    def cell(self, n: int, alpha: float) -> CellResult:
        for c in self.cells:
            if c.n == n and c.alpha == alpha:
                return c
        raise KeyError(f"no cell for n={n}, alpha={alpha}")


def pool_size(threads: int, tasks: int) -> int:
    """Worker threads for ``tasks`` tasks: min(threads, cores, tasks), with
    the cores this process may run on where the platform tells them."""
    check_count(threads, 1, "threads")
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(threads, cores, tasks)


def _run_tasks(tasks: list[Callable[[], object]], threads: int) -> list:
    """Run the tasks on one pool and return their results by task index."""
    workers = pool_size(threads, len(tasks))
    if workers == 1:
        return [task() for task in tasks]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _blocks(count: int, rows_each: int) -> list[range]:
    """The blocks of ``count`` replicates (or seeds) of ``rows_each`` points
    each, in order: at most ``BLOCK_ROWS`` points, and at least one
    replicate, per block."""
    per_block = max(1, BLOCK_ROWS // rows_each)
    return [range(j, min(j + per_block, count)) for j in range(0, count, per_block)]


def cell_estimates(
    law: Law, n: int, alphas, streams: list[RngStream]
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and hit counts at sample size n, one replicate per stream,
    at each level of the sequence ``alphas``: arrays of shape (levels, k),
    one column per stream.

    Each stream draws 2n points of the population ``law`` (level half, then
    cost half) and then the cost noise.  The k replicates are drawn in one
    ``law.draw`` call into one (k, d, 2n) array, fitted at once by the
    fitting core (:func:`~depthrisk.depth.fit_columns`) and scored at every
    level by the ratio kernel of :mod:`depthrisk.ccte`.
    :func:`run_replications` passes one block of replicates
    (:func:`_blocks`) per call, so a study holds one block's arrays per
    thread at a time.
    """
    cols = law.draw(2 * n, streams)
    costs = _noisy_costs(cols[..., n:], law.noise_var, streams)
    mu, _, low = fit_columns(cols[..., :n])
    return _ratio_under_models(mu, low, cols[..., n:], costs, alphas)


def run_replications(
    cfg: ExperimentConfig,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> ReplicationReport:
    """Run the full study grid and aggregate per-cell statistics.

    Replicate j at sample size n owns the substream hashed from (tag, n, j);
    it is drawn and fitted once and scored at every level, so the cells at
    one n share their replicates across levels.  The truths of all levels
    come from the law's ``exact_truth``, with no draws, so ``truth_se`` is
    0.0.  One pool of ``pool_size(threads, tasks)`` threads runs the truths
    as task 0, so they come (and fail) first at one thread, then one task
    per block of replicates (:func:`_blocks`), each one
    :func:`cell_estimates` call, largest n first, so the longest tasks start
    first.  Results are gathered by task index and joined per n, so they do
    not depend on execution order or thread count.
    """
    t0 = time.monotonic()
    say = progress if progress is not None else (lambda _msg: None)
    law = cfg.data_cfg
    r = cfg.replications
    blocks = [(n, replicates) for n in sorted(cfg.n_values, reverse=True)
              for replicates in _blocks(r, 2 * n)]

    def exact_truths():
        say("exact truths for alpha in " + ", ".join(repr(a) for a in cfg.alpha_values))
        return law.exact_truth(cfg.alpha_values)

    def block_cells(n: int, replicates: range):
        if replicates.start == 0:
            say(f"cells n={n}")
        streams = [RngStream(cfg.master_seed, mix64(_TAG_REPLICATE, n, j)) for j in replicates]
        return cell_estimates(law, n, cfg.alpha_values, streams)

    tasks = [exact_truths] + [partial(block_cells, *block) for block in blocks]
    truths, *results = _run_tasks(tasks, threads)
    per_n = {n: [res for (m, _), res in zip(blocks, results) if m == n] for n in cfg.n_values}

    cells = []
    for n in cfg.n_values:
        values, hit_rows = (np.concatenate(parts, axis=1) for parts in zip(*per_n[n]))
        for alpha, truth, estimates, hits in zip(cfg.alpha_values, truths, values, hit_rows):
            mean = float(np.mean(estimates))
            sigma_hat = float(np.sqrt(np.sum((estimates - mean) ** 2) / (r - 1)))
            rmae = float(np.mean(np.abs(estimates - truth)) / abs(truth))
            cells.append(
                CellResult(
                    n=n,
                    alpha=alpha,
                    truth=truth,
                    truth_se=0.0,
                    estimates=estimates,
                    mean=mean,
                    sigma_hat=sigma_hat,
                    rmae=rmae,
                    degenerate_count=int(np.count_nonzero(hits == 0)),
                )
            )
    return ReplicationReport(
        config=cfg, cells=tuple(cells), wall_clock_seconds=time.monotonic() - t0
    )


def rate_table(report: ReplicationReport) -> list[tuple[int, float, float, float]]:
    """Rows (n, alpha, delta, V) with V = n^(1/2 - delta) * rmae, one per
    cell and delta of the config's ``delta_values``."""
    rows = []
    for cell in report.cells:
        for delta in report.config.delta_values:
            v = cell.n ** (0.5 - delta) * cell.rmae
            rows.append((cell.n, cell.alpha, delta, v))
    return rows


def _loglog_slope(ns, stats) -> float | None:
    """Least-squares slope of log(stat) against log(n); None when the sample
    sizes are all equal."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(stats, dtype=float))
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        return None
    return float(np.dot(xc, y - y.mean()) / denom)


def rate_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(stat) against log(n).

    Needs at least three (n, stat) pairs of finite numbers; every statistic
    must be strictly positive (a zero would send the log to -inf).
    """
    pts = check_finite(points, "points")
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise DomainError(f"rate_slope needs at least 3 (n, stat) pairs, got shape {pts.shape}")
    ns, stats = pts.T
    if np.any(ns <= 0.0):
        raise DomainError("sample sizes must be positive")
    if np.any(stats <= 0.0):
        raise NonPositiveStatistic("all statistics must be > 0 to fit a log-log slope")
    slope = _loglog_slope(ns, stats)
    if slope is None:
        raise DomainError("sample sizes must not all be equal")
    return slope


def summary_csv_text(report: ReplicationReport) -> str:
    rows = (
        (c.n, c.alpha, c.truth, c.truth_se, c.mean, c.sigma_hat, c.rmae, c.degenerate_count)
        for c in report.cells
    )
    return csv_text(SUMMARY_HEADER, rows)


def rates_csv_text(rows: list[tuple[int, float, float, float]]) -> str:
    return csv_text(RATES_HEADER, rows)


def emit_tables(
    report: ReplicationReport,
    rate: list[tuple[int, float, float, float]] | None,
    out_dir: str | Path,
) -> dict[str, Path]:
    """Write summary.csv, rates.csv, and manifest.json under ``out_dir``.

    ``rate`` is a rate_table result; None means compute it from the config's
    delta values.  Numeric fields use shortest round-trip decimal strings,
    files end with a single LF, and each file is written atomically.
    Returns the paths.
    """
    if rate is None:
        rate = rate_table(report)
    out = make_out_dir(out_dir)
    paths = {
        "summary": out / "summary.csv",
        "rates": out / "rates.csv",
        "manifest": out / "manifest.json",
    }
    manifest = {
        "config": config_to_json(report.config),
        "master_seed": report.config.master_seed,
        "population_model": report.config.data_cfg.exact_model.to_json(),
        "truth": "exact",
        "version": __version__,
        "wall_clock_seconds": report.wall_clock_seconds,
    }
    atomic_write_text(paths["summary"], summary_csv_text(report))
    atomic_write_text(paths["rates"], rates_csv_text(rate))
    atomic_write_text(
        paths["manifest"], json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return paths


@dataclass(frozen=True)
class ConvergenceConfig:
    """A fitted-vs-truth distance decay study.

    ``data_cfg`` is the population law, checked as in :class:`ExperimentConfig`;
    the study reads its ``draw`` and ``exact_model``, not its ``noise_var``.
    For each sample size in ``n_values`` and each of ``seeds`` seeds, a
    sample is drawn from the law and fitted; the fit is compared with the
    exact model by depth sup-norm, boundary Hausdorff distance at level
    ``alpha`` (``boundary_m`` boundary points per side) and the volume of the
    symmetric difference of the level sets, a radial quadrature that takes
    no draws.  Every sample size must be at least d + 1, the fewest points a
    fit takes.
    """

    data_cfg: Law
    n_values: tuple[int, ...]
    seeds: int
    alpha: float = 0.5
    boundary_m: int = 4096
    master_seed: int = 0

    _checks = (
        _DATA_CFG_CHECK,
        _N_VALUES_CHECK,
        ("seeds", lambda v: is_count(v, 1), "must be an integer >= 1"),
        ("alpha", check_level, "must lie in (0, 1)"),
        ("boundary_m", lambda v: is_count(v, 64), "must be an integer >= 64"),
        _MASTER_SEED_CHECK,
    )

    __post_init__ = _check_study


def convergence_config_from_json(obj: dict) -> ConvergenceConfig:
    """Build a convergence study config from parsed JSON, its ``data`` read
    as in :func:`config_from_json`; one ConfigError names every problem."""
    table = {
        "data": law_from_json,
        "n_values": json_ints,
        "seeds": json_int,
        "alpha": json_float,
        "boundary_m": json_int,
        "master_seed": json_int,
    }
    required = ("data", "n_values", "seeds")
    fields = fields_from_json(ConvergenceConfig, obj, table, required, dict(
        _STUDY_HINTS, symdiff_n_mc=" (the symmetric-difference volume takes no draws)"))
    return ConvergenceConfig(data_cfg=fields.pop("data"), **fields)


def run_convergence(
    cfg: ConvergenceConfig, progress: Callable[[str], None] | None = None
) -> dict[str, np.ndarray]:
    """Fitted-vs-truth distances for every sample size and seed.

    Returns, for each name in ``CONVERGENCE_STATS``, an array with one row
    per entry of ``cfg.n_values`` and one column per seed.  Seed s at size
    n draws its sample from its own substream hashed from (tag, n, s).

    The seeds at one n are taken in blocks (see :func:`_blocks`), counting
    for each seed its n draws, the 2 * ``boundary_m`` boundary samples of
    both sides and the directions of the radial rule.  A block is drawn in
    one ``law.draw`` call into one (k, d, n) array, fitted in one
    :func:`~depthrisk.depth.fit_columns` call and measured against the law's
    ``exact_model`` by the radial volume of
    :func:`~depthrisk.levelset._radial_volumes` about the true center, in any
    dimension and wherever that center lies, and by the Hausdorff screen of
    :func:`~depthrisk.levelset._hausdorff_screen` (about 2% of the boundary
    samples pass it on the shipped config).  The two small solves, bound by
    numpy's per-call overhead, run once per solve group of up to
    ``_SOLVE_GROUP_BLOCKS`` blocks: the sup-norm search of
    :func:`~depthrisk.depth.sup_norm_distance` and the Newton pass of
    :func:`~depthrisk.levelset._hausdorff_measure`.  Each entry has the bits
    of those distances of the seed's own fit,
    ``fit_model(Sample(law.draw(n, [stream])[0].T))``.
    """
    say = progress if progress is not None else (lambda _msg: None)
    law = cfg.data_cfg
    truth = _stack(LevelSetSpec(law.exact_model, cfg.alpha))
    truth_cols = _boundary_columns(truth, cfg.boundary_m)
    truth_powers = _center_powers(truth)
    shape = (len(cfg.n_values), cfg.seeds)
    distances = {name: np.empty(shape) for name in CONVERGENCE_STATS}
    for k, n in enumerate(cfg.n_values):
        blocks = _blocks(cfg.seeds, n + 2 * cfg.boundary_m + truth_powers.shape[1])
        for g in range(0, len(blocks), _SOLVE_GROUP_BLOCKS):
            group = blocks[g : g + _SOLVE_GROUP_BLOCKS]
            first = group[0].start
            fitted, screened = [], []
            for seeds in group:
                streams = [RngStream(cfg.master_seed, mix64(_TAG_CONV_SAMPLE, n, s)) for s in seeds]
                mu, cov, low = fit_columns(law.draw(n, streams))
                fits = _Sets(mu, cov, low, truth.radius_sq)
                distances["symdiff"][k, seeds.start : seeds.stop] = _radial_volumes(
                    fits, truth, truth_powers)
                *candidates, owner = _hausdorff_screen(
                    fits, _boundary_columns(fits, cfg.boundary_m), truth, truth_cols)
                screened.append((*candidates, owner + (seeds.start - first)))
                fitted.append((mu, low))
            mu, low = (np.concatenate(part) for part in zip(*fitted))
            span = (k, slice(first, group[-1].stop))
            distances["supnorm"][span] = _sup_norms(mu, low, truth.mu, truth.low)
            distances["hausdorff"][span] = _hausdorff_measure(
                *(np.concatenate(part, axis=-1) for part in zip(*screened)), len(mu))
        say(f"n={n}: {cfg.seeds} seeds done")
    return distances


def convergence_csv_text(n_values, distances: dict[str, np.ndarray]) -> str:
    """The convergence table of a :func:`run_convergence` result.

    One row per sample size with the median and quartiles of each distance,
    then a ``slope`` row of log-log slopes against n, ``NA`` where a slope
    is undefined (one sample size, or a distance that is not positive).
    """
    header = ["n"]
    rows = [[n] for n in n_values]
    slopes = ["slope"]
    for name in CONVERGENCE_STATS:
        q25, med, q75 = np.percentile(distances[name], [25.0, 50.0, 75.0], axis=1)
        for suffix, column in (("median", med), ("q25", q25), ("q75", q75)):
            header.append(f"{name}_{suffix}")
            for row, value in zip(rows, column):
                row.append(float(value))
            slope = None if np.any(column <= 0.0) else _loglog_slope(n_values, column)
            slopes.append("NA" if slope is None else slope)
    return csv_text(",".join(header), rows + [slopes])
