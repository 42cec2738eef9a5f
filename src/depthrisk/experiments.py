"""Seeded replication studies of conditional tail expectation convergence.

A study draws repeated two-part samples from a fixed population, estimates
the depth-conditioned expectation on each replicate, and aggregates per-cell
error statistics against a high-precision Monte Carlo truth.  All randomness
descends from one master seed through tagged substreams, so reruns (and
threaded runs) reproduce output files byte for byte.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Union

import numpy as np

from ._version import __version__
from .ccte import (
    BATCH_ROWS,
    Population,
    ccte_hat_batch,
    ccte_true_oracle,
    estimate_population_model,
)
from .depth import DepthModel
from .errors import ConfigError, DomainError, IoError, NonPositiveStatistic
from .linalg import build_spd
from .rng import RngStream, mix64
from .sampling import (
    FrankGumbelConfig,
    Sample,
    attach_costs,
    sample_gaussian,
    sample_risk_factors,
)

# Substream tags.  Each purpose gets a distinct tag so no two draws in a
# study can collide even when (n, alpha index, replicate) tuples repeat.
_TAG_MOMENTS = 1
_TAG_TRUTH = 2
_TAG_REPLICATE = 3

SUMMARY_HEADER = "n,alpha,truth,truth_se,mean,sigma_hat,rmae,degenerate_count"
RATES_HEADER = "n,alpha,delta,V"


@dataclass(frozen=True)
class GaussianConfig:
    """Multivariate normal population with quadratic costs plus noise."""

    mu: tuple[float, ...]
    sigma: tuple[tuple[float, ...], ...]
    noise_var: float = 0.005

    def __post_init__(self) -> None:
        problems = []
        if len(self.mu) == 0:
            problems.append("mu: must be nonempty")
        elif not np.all(np.isfinite(self.mu)):
            problems.append("mu: entries must be finite")
        if not (np.isfinite(self.noise_var) and self.noise_var >= 0.0):
            problems.append("noise_var: must be finite and >= 0")
        if not problems:
            try:
                self.model()
            except Exception as exc:
                problems.append(f"sigma: {exc}")
        if problems:
            raise ConfigError("; ".join(problems))

    def model(self) -> DepthModel:
        return DepthModel(np.array(self.mu, dtype=float), build_spd(self.sigma))

    def to_json(self) -> dict:
        return {
            "kind": "gaussian",
            "mu": list(self.mu),
            "sigma": [list(row) for row in self.sigma],
            "noise_var": self.noise_var,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GaussianConfig":
        problems = []
        for key in ("mu", "sigma"):
            if key not in obj:
                problems.append(f"{key}: missing")
        if problems:
            raise ConfigError("; ".join(problems))
        try:
            mu = tuple(float(v) for v in obj["mu"])
            sigma = tuple(tuple(float(v) for v in row) for row in obj["sigma"])
        except (TypeError, ValueError):
            raise ConfigError("mu, sigma: must be numeric arrays") from None
        return cls(mu=mu, sigma=sigma, noise_var=float(obj.get("noise_var", 0.005)))


DataConfig = Union[GaussianConfig, FrankGumbelConfig]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a replication study.

    ``delta_values`` may be empty (the rate table is then header-only); the
    sample sizes and levels may not be.
    """

    data_cfg: DataConfig
    n_values: tuple[int, ...]
    alpha_values: tuple[float, ...]
    replications: int
    delta_values: tuple[float, ...] = ()
    truth_n_mc: int = 1_000_000
    master_seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        if len(self.n_values) == 0:
            problems.append("n_values: must be nonempty")
        elif any(int(n) != n or n < 2 for n in self.n_values):
            problems.append("n_values: every entry must be an integer >= 2")
        if len(self.alpha_values) == 0:
            problems.append("alpha_values: must be nonempty")
        elif any(not (0.0 < a < 1.0) for a in self.alpha_values):
            problems.append("alpha_values: every entry must lie in (0, 1)")
        if self.replications < 2:
            problems.append("replications: must be >= 2")
        if self.truth_n_mc < 100_000:
            problems.append("truth_n_mc: must be >= 100000")
        if int(self.master_seed) != self.master_seed or self.master_seed < 0:
            problems.append("master_seed: must be a nonnegative integer")
        if problems:
            raise ConfigError("; ".join(problems))


def config_to_json(cfg: ExperimentConfig) -> dict:
    data = dict(cfg.data_cfg.to_json())
    data.setdefault(
        "kind", "gaussian" if isinstance(cfg.data_cfg, GaussianConfig) else "frank_gumbel"
    )
    return {
        "data": data,
        "n_values": list(cfg.n_values),
        "alpha_values": list(cfg.alpha_values),
        "replications": cfg.replications,
        "delta_values": list(cfg.delta_values),
        "truth_n_mc": cfg.truth_n_mc,
        "master_seed": cfg.master_seed,
    }


def _json_int(value) -> int:
    """A JSON integer field: an int, or a float with an exact integer value.

    Booleans, strings and fractional or non-finite floats are the wrong
    type: they raise rather than being truncated.
    """
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole:
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def config_from_json(obj: dict) -> ExperimentConfig:
    """Build a study config from parsed JSON.

    Raises ConfigError naming every problem found in one message, so a bad
    file can be fixed in a single edit pass.
    """
    problems = []
    data_cfg = None
    data_obj = obj.get("data")
    if not isinstance(data_obj, dict):
        problems.append("data: missing or not an object")
    else:
        kind = data_obj.get("kind")
        if kind == "gaussian":
            maker = GaussianConfig.from_json
        elif kind == "frank_gumbel":
            maker = FrankGumbelConfig.from_json
        else:
            maker = None
            problems.append("data.kind: must be 'gaussian' or 'frank_gumbel'")
        if maker is not None:
            try:
                data_cfg = maker(data_obj)
            except ConfigError as exc:
                problems.extend("data." + part for part in str(exc).split("; "))

    plain = {}
    converters = [
        ("n_values", lambda v: tuple(_json_int(x) for x in v)),
        ("alpha_values", lambda v: tuple(float(x) for x in v)),
        ("replications", _json_int),
        ("delta_values", lambda v: tuple(float(x) for x in v)),
        ("truth_n_mc", _json_int),
        ("master_seed", _json_int),
    ]
    optional = {"delta_values": (), "truth_n_mc": 1_000_000, "master_seed": 0}
    for key, conv in converters:
        if key in obj:
            try:
                plain[key] = conv(obj[key])
            except (TypeError, ValueError):
                problems.append(f"{key}: wrong type")
        elif key in optional:
            plain[key] = optional[key]
        else:
            problems.append(f"{key}: missing")
    if problems:
        raise ConfigError("; ".join(problems))
    return ExperimentConfig(data_cfg=data_cfg, **plain)


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


def _population_parts(cfg: ExperimentConfig):
    """Return (draw, noise_var, model_or_none) for the configured data law.

    ``model_or_none`` is the exact depth model when it is known in closed
    form; None means the caller must estimate it from Monte Carlo moments.
    """
    data = cfg.data_cfg
    if isinstance(data, GaussianConfig):
        model = data.model()

        def draw(n: int, rng: RngStream) -> np.ndarray:
            return sample_gaussian(n, model, rng).points

        return draw, data.noise_var, model

    def draw(n: int, rng: RngStream) -> np.ndarray:
        return sample_risk_factors(n, data, rng).points

    return draw, data.noise_var, None


def pool_size(threads: int, tasks: int) -> int:
    """Worker threads for ``tasks`` tasks: min(threads, cores, tasks)."""
    if threads < 1:
        raise DomainError("threads must be >= 1")
    return min(threads, os.cpu_count() or 1, tasks)


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


def cell_estimates(
    draw, noise_var: float, n: int, alpha: float, streams: list[RngStream]
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and hit counts of one cell, one replicate per stream.

    Each stream draws 2n points (level half, then cost half) and then the
    cost noise; replicates are evaluated together in blocks of at most
    ``BATCH_ROWS`` drawn rows.
    """
    per_block = max(1, BATCH_ROWS // (2 * n))
    values, hits = [], []
    for start in range(0, len(streams), per_block):
        points, costs = [], []
        for stream in streams[start : start + per_block]:
            pts = draw(2 * n, stream)
            points.append(pts.T)
            costs.append(attach_costs(Sample(pts[n:]), noise_var, stream).costs)
        cols = np.stack(points)
        v, h = ccte_hat_batch(cols[..., :n], cols[..., n:], np.stack(costs), alpha)
        values.append(v)
        hits.append(h)
    return np.concatenate(values), np.concatenate(hits)


def run_replications(
    cfg: ExperimentConfig,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> ReplicationReport:
    """Run the full study grid and aggregate per-cell statistics.

    Replicate j of cell (n, alpha_i) owns the substream hashed from
    (tag, n, i, j), and the truths of all levels come from one pass on one
    truth stream.  The population pass and the cells are the tasks of one
    pool of ``pool_size(threads, tasks)`` threads, gathered by task index,
    so results do not depend on execution order or thread count.
    """
    t0 = time.monotonic()
    say = progress if progress is not None else (lambda _msg: None)
    draw, noise_var, exact_model = _population_parts(cfg)

    def population_pass() -> list[tuple[float, float]]:
        if exact_model is None:
            say("estimating population moments")
            moment_rng = RngStream(cfg.master_seed, mix64(_TAG_MOMENTS))
            pop_model = estimate_population_model(draw, cfg.truth_n_mc, moment_rng)
        else:
            pop_model = exact_model
        say("truth for alpha in " + ", ".join(repr(a) for a in cfg.alpha_values))
        truth_rng = RngStream(cfg.master_seed, mix64(_TAG_TRUTH))
        population = Population(model=pop_model, draw=draw)
        return ccte_true_oracle(population, cfg.alpha_values, cfg.truth_n_mc, truth_rng)

    r = cfg.replications
    grid = [(n, i, alpha) for n in cfg.n_values for i, alpha in enumerate(cfg.alpha_values)]

    def cell(n: int, i: int, alpha: float):
        say(f"cell n={n} alpha={alpha}")
        streams = [RngStream(cfg.master_seed, mix64(_TAG_REPLICATE, n, i, j)) for j in range(r)]
        return cell_estimates(draw, noise_var, n, alpha, streams)

    tasks = [population_pass] + [partial(cell, *c) for c in grid]
    truths, *cell_results = _run_tasks(tasks, threads)

    cells = []
    for (n, i, alpha), (estimates, hits) in zip(grid, cell_results):
        truth, truth_se = truths[i]
        mean = float(np.mean(estimates))
        sigma_hat = float(np.sqrt(np.sum((estimates - mean) ** 2) / (r - 1)))
        rmae = float(np.mean(np.abs(estimates - truth)) / abs(truth))
        cells.append(
            CellResult(
                n=n,
                alpha=alpha,
                truth=truth,
                truth_se=truth_se,
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


def rate_table(
    report: ReplicationReport, delta_values: tuple[float, ...] | None = None
) -> list[tuple[int, float, float, float]]:
    """Rows (n, alpha, delta, V) with V = n^(1/2 - delta) * rmae."""
    deltas = report.config.delta_values if delta_values is None else tuple(delta_values)
    rows = []
    for cell in report.cells:
        for delta in deltas:
            v = cell.n ** (0.5 - delta) * cell.rmae
            rows.append((cell.n, cell.alpha, delta, v))
    return rows


def rate_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(stat) against log(n).

    Needs at least three points; every statistic must be strictly positive
    (a zero would send the log to -inf and poison the fit).
    """
    if len(points) < 3:
        raise DomainError("rate_slope needs at least 3 points")
    ns = np.array([p[0] for p in points], dtype=float)
    stats = np.array([p[1] for p in points], dtype=float)
    if np.any(ns <= 0.0):
        raise DomainError("sample sizes must be positive")
    if np.any(stats <= 0.0):
        raise NonPositiveStatistic("all statistics must be > 0 to fit a log-log slope")
    x = np.log(ns)
    y = np.log(stats)
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        raise DomainError("sample sizes must not all be equal")
    return float(np.dot(xc, y - y.mean()) / denom)


def _fmt(value) -> str:
    """Shortest decimal string that round-trips the value."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _atomic_write_text(path: Path, text: str) -> None:
    """Write the whole file or nothing: temp file in place, then rename."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise IoError(f"cannot write {path}: {exc}") from exc


def summary_csv_text(report: ReplicationReport) -> str:
    lines = [SUMMARY_HEADER]
    for c in report.cells:
        lines.append(
            ",".join(
                [
                    _fmt(c.n),
                    _fmt(c.alpha),
                    _fmt(c.truth),
                    _fmt(c.truth_se),
                    _fmt(c.mean),
                    _fmt(c.sigma_hat),
                    _fmt(c.rmae),
                    _fmt(c.degenerate_count),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def rates_csv_text(rows: list[tuple[int, float, float, float]]) -> str:
    lines = [RATES_HEADER]
    for n, alpha, delta, v in rows:
        lines.append(",".join([_fmt(n), _fmt(alpha), _fmt(delta), _fmt(v)]))
    return "\n".join(lines) + "\n"


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
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc

    paths = {
        "summary": out / "summary.csv",
        "rates": out / "rates.csv",
        "manifest": out / "manifest.json",
    }
    manifest = {
        "config": config_to_json(report.config),
        "master_seed": report.config.master_seed,
        "version": __version__,
        "wall_clock_seconds": report.wall_clock_seconds,
    }
    _atomic_write_text(paths["summary"], summary_csv_text(report))
    _atomic_write_text(paths["rates"], rates_csv_text(rate))
    _atomic_write_text(
        paths["manifest"], json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return paths


def gaussian_truth_population(cfg: GaussianConfig) -> Population:
    """Population wrapper for a closed-form normal model."""
    model = cfg.model()

    def draw(n: int, rng: RngStream) -> np.ndarray:
        return sample_gaussian(n, model, rng).points

    return Population(model=model, draw=draw)
