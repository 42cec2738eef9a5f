"""Command-line entry point.

Subcommands: depth (evaluate depth/gradients on points or a grid), levelset
(boundary export plus geometric diagnostics), ccte (tail expectation from two
CSV samples), experiment (replication study from a JSON config), convergence
(fitted-vs-truth distance decay study).

Conventions: stderr carries progress text, stdout carries nothing except the
optional --json summary, every output file is written atomically, and all
randomness descends from an explicit seed (flags win over config values).
Exit codes: 0 success, 2 config/usage errors, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .ccte import ccte_hat
from .depth import DepthModel, fit_model, mhd, mhd_gradient, sup_norm_distance
from .errors import ConfigError, DepthRiskError, IoError
from .experiments import (
    _atomic_write_text,
    _fmt,
    config_from_json,
    emit_tables,
    run_replications,
)
from .levelset import LevelSetSpec, boundary_points, hausdorff_report, sym_diff_volume
from .rng import RngStream, mix64
from .sampling import Sample, sample_gaussian

# Substream tags for CLI-owned randomness, disjoint from the experiment tags.
_TAG_CONV_SAMPLE = 101
_TAG_CONV_MC = 102
_TAG_SYMDIFF = 103

_CONVERGENCE_STATS = ("supnorm", "hausdorff", "symdiff")


def _say(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _load_json_file(path: Path, what: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{what}: cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: {path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what}: {path}: expected a JSON object")
    return obj


def _load_model(path: Path) -> DepthModel:
    obj = _load_json_file(path, "model")
    try:
        return DepthModel.from_json(obj)
    except DepthRiskError as exc:
        raise ConfigError(f"model: {path}: {exc}") from exc


def _read_matrix_csv(path: Path, expect_cols: int | None = None) -> np.ndarray:
    """Parse a numeric CSV, skipping one optional header line.

    Errors name the offending line so the file can be fixed directly.
    """
    rows: list[list[float]] = []
    ncols = expect_cols
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                parts = [p.strip() for p in stripped.split(",")]
                try:
                    vals = [float(p) for p in parts]
                except ValueError:
                    if lineno == 1:
                        continue
                    raise IoError(
                        f"{path}: line {lineno}: cannot parse '{stripped}'"
                    ) from None
                if ncols is None:
                    ncols = len(vals)
                if len(vals) != ncols:
                    raise IoError(
                        f"{path}: line {lineno}: expected {ncols} columns, got {len(vals)}"
                    )
                rows.append(vals)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IoError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def _parse_grid(spec: str, dim: int) -> np.ndarray:
    """Expand "lo:hi:count,lo:hi:count,..." into a row-major tensor grid."""
    parts = spec.split(",")
    if len(parts) != dim:
        raise ConfigError(f"grid: expected {dim} axes, got {len(parts)}")
    axes = []
    for i, part in enumerate(parts):
        bits = part.split(":")
        ok = len(bits) == 3
        if ok:
            try:
                lo, hi, count = float(bits[0]), float(bits[1]), int(bits[2])
            except ValueError:
                ok = False
        if not ok:
            raise ConfigError(f"grid: axis {i + 1}: expected 'lo:hi:count'")
        if count < 1:
            raise ConfigError(f"grid: axis {i + 1}: count must be >= 1")
        axes.append(np.linspace(lo, hi, count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


def _write_rows_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc
    return out


def _cmd_depth(args) -> int:
    if args.model is not None:
        model = _load_model(args.model)
    else:
        pts = _read_matrix_csv(args.fit)
        model = fit_model(Sample(pts))
    if args.points is not None:
        points = _read_matrix_csv(args.points, expect_cols=model.dim)
    else:
        points = _parse_grid(args.grid, model.dim)
    depths = np.atleast_1d(mhd(points, model))
    grads = mhd_gradient(points, model)
    d = model.dim
    header = ",".join(
        [f"x{i + 1}" for i in range(d)] + ["depth"] + [f"g{i + 1}" for i in range(d)]
    )
    rows = (
        list(points[k]) + [depths[k]] + list(grads[k]) for k in range(points.shape[0])
    )
    out = _out_dir(args) / "depths.csv"
    _write_rows_csv(out, header, rows)
    _say(f"wrote {out} ({points.shape[0]} rows)")
    return 0


def _cmd_levelset(args) -> int:
    model = _load_model(args.model)
    spec = LevelSetSpec(model, args.alpha)
    pts = boundary_points(spec, args.boundary_m)
    out = _out_dir(args)
    header = ",".join(f"x{i + 1}" for i in range(model.dim))
    _write_rows_csv(out / "boundary.csv", header, (list(row) for row in pts))
    _say(f"wrote {out / 'boundary.csv'} ({pts.shape[0]} rows)")

    if args.model2 is not None:
        other = LevelSetSpec(_load_model(args.model2), args.alpha)
        report = hausdorff_report(spec, other, args.boundary_m)
        rng = RngStream(args.seed, mix64(_TAG_SYMDIFF))
        volume, se = sym_diff_volume(spec, other, args.symdiff_n_mc, rng)
        doc = {
            "alpha": args.alpha,
            "boundary_m": args.boundary_m,
            "hausdorff": report.distance,
            "resolution": report.resolution,
            "symdiff_n_mc": args.symdiff_n_mc,
            "symdiff_se": se,
            "symdiff_volume": volume,
        }
        _atomic_write_text(
            out / "diagnostics.json", json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        _say(f"wrote {out / 'diagnostics.json'}")
    return 0


def _cmd_ccte(args) -> int:
    level_pts = _read_matrix_csv(args.level)
    cost_mat = _read_matrix_csv(args.cost)
    d = level_pts.shape[1]
    if cost_mat.shape[1] != d + 1:
        raise IoError(
            f"{args.cost}: expected {d + 1} columns (coordinates plus cost), "
            f"got {cost_mat.shape[1]}"
        )
    level = Sample(level_pts)
    cost = Sample(cost_mat[:, :-1], costs=cost_mat[:, -1])
    estimate = ccte_hat(level, cost, args.alpha)
    doc = estimate.to_json()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.json:
        print(text)
    else:
        out = _out_dir(args) / "estimate.json"
        _atomic_write_text(out, text + "\n")
        _say(f"wrote {out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = config_from_json(_load_json_file(args.config, "config"))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    report = run_replications(cfg, threads=args.threads, progress=_say)
    paths = emit_tables(report, None, args.out)
    _say(f"wrote {paths['summary']}, {paths['rates']}, {paths['manifest']}")
    if args.json:
        summary = {
            "cells": [
                {
                    "alpha": c.alpha,
                    "mean": c.mean,
                    "n": c.n,
                    "rmae": c.rmae,
                    "truth": c.truth,
                }
                for c in report.cells
            ],
            "out_dir": str(Path(args.out)),
            "wall_clock_seconds": report.wall_clock_seconds,
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _convergence_config(obj: dict) -> dict:
    problems = []
    parsed: dict = {}

    model_obj = obj.get("model")
    if not isinstance(model_obj, dict):
        problems.append("model: missing or not an object")
    else:
        try:
            parsed["model"] = DepthModel.from_json(model_obj)
        except DepthRiskError as exc:
            problems.append(f"model: {exc}")

    def grab(key, conv, check, why, default=None):
        if key not in obj:
            if default is None:
                problems.append(f"{key}: missing")
            else:
                parsed[key] = default
            return
        try:
            val = conv(obj[key])
        except (TypeError, ValueError):
            problems.append(f"{key}: wrong type")
            return
        if not check(val):
            problems.append(f"{key}: {why}")
            return
        parsed[key] = val

    grab("n_values", lambda v: tuple(int(x) for x in v),
         lambda v: len(v) > 0 and all(x >= 2 for x in v), "entries must be >= 2")
    grab("seeds", int, lambda v: v >= 1, "must be >= 1")
    grab("alpha", float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)", default=0.5)
    grab("boundary_m", int, lambda v: v >= 64, "must be >= 64", default=4096)
    grab("symdiff_n_mc", int, lambda v: v >= 1000, "must be >= 1000", default=100_000)
    grab("master_seed", int, lambda v: v >= 0, "must be >= 0", default=0)

    if problems:
        raise ConfigError("; ".join(problems))
    return parsed


def _loglog_slope(ns, ys) -> float | None:
    """Least-squares slope of log(y) on log(n); None when undefined."""
    if len(ns) < 2 or any(y <= 0.0 for y in ys):
        return None
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    xc = x - x.mean()
    denom = float(np.dot(xc, xc))
    if denom == 0.0:
        return None
    return float(np.dot(xc, y - y.mean()) / denom)


def _cmd_convergence(args) -> int:
    cfg = _convergence_config(_load_json_file(args.config, "config"))
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    truth = cfg["model"]
    truth_spec = LevelSetSpec(truth, cfg["alpha"])
    seed = cfg["master_seed"]

    per_stat: dict[str, dict[int, list[float]]] = {
        name: {n: [] for n in cfg["n_values"]} for name in _CONVERGENCE_STATS
    }
    for n in cfg["n_values"]:
        for s in range(cfg["seeds"]):
            rng = RngStream(seed, mix64(_TAG_CONV_SAMPLE, n, s))
            fitted = fit_model(sample_gaussian(n, truth, rng))
            fit_spec = LevelSetSpec(fitted, cfg["alpha"])
            per_stat["supnorm"][n].append(sup_norm_distance(fitted, truth))
            per_stat["hausdorff"][n].append(
                hausdorff_report(fit_spec, truth_spec, cfg["boundary_m"]).distance
            )
            mc_rng = RngStream(seed, mix64(_TAG_CONV_MC, n, s))
            vol, _ = sym_diff_volume(fit_spec, truth_spec, cfg["symdiff_n_mc"], mc_rng)
            per_stat["symdiff"][n].append(vol)
        _say(f"n={n}: {cfg['seeds']} seeds done")

    columns = []
    for name in _CONVERGENCE_STATS:
        columns += [f"{name}_median", f"{name}_q25", f"{name}_q75"]
    header = "n," + ",".join(columns)

    table: dict[str, list[float]] = {c: [] for c in columns}
    lines = [header]
    for n in cfg["n_values"]:
        cells = [str(n)]
        for name in _CONVERGENCE_STATS:
            q25, med, q75 = np.percentile(per_stat[name][n], [25.0, 50.0, 75.0])
            for col, val in ((f"{name}_median", med), (f"{name}_q25", q25), (f"{name}_q75", q75)):
                table[col].append(float(val))
                cells.append(_fmt(float(val)))
        lines.append(",".join(cells))

    slope_cells = ["slope"]
    for col in columns:
        slope = _loglog_slope(cfg["n_values"], table[col])
        slope_cells.append("NA" if slope is None else _fmt(slope))
    lines.append(",".join(slope_cells))

    out = _out_dir(args) / "convergence.csv"
    _atomic_write_text(out, "\n".join(lines) + "\n")
    _say(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthrisk",
        description="Depth-based multivariate risk measurement tools.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("depth", help="evaluate depth and gradients on points")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", type=Path, help="model JSON with 'mu' and 'sigma'")
    src.add_argument("--fit", type=Path, help="CSV sample to fit the model from")
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--points", type=Path, help="CSV of evaluation points")
    where.add_argument("--grid", type=str, help="per-axis lo:hi:count, comma-separated")
    p.add_argument("-o", "--out", type=Path, default=Path("."))
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("levelset", help="export a level-set boundary and diagnostics")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("-m", "--boundary-m", type=int, default=4096)
    p.add_argument("--model2", type=Path, help="second model for distance diagnostics")
    p.add_argument("--symdiff-n-mc", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", type=Path, default=Path("."))
    p.set_defaults(func=_cmd_levelset)

    p = sub.add_parser("ccte", help="tail expectation from level and cost samples")
    p.add_argument("--level", type=Path, required=True, help="CSV of level-set points")
    p.add_argument(
        "--cost", type=Path, required=True, help="CSV of points with cost last column"
    )
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--json", action="store_true", help="print the estimate to stdout")
    p.add_argument("-o", "--out", type=Path, default=Path("."))
    p.set_defaults(func=_cmd_ccte)

    p = sub.add_parser("experiment", help="run a replication study from a config")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--seed", type=int, help="override the config master seed")
    p.add_argument("--threads", type=int, default=1,
                   help="study pool size, capped at the core count (same output at any count)")
    p.add_argument("--json", action="store_true", help="print a summary to stdout")
    p.add_argument("-o", "--out", type=Path, default=Path("."))
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("convergence", help="fitted-vs-truth distance decay study")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--seed", type=int, help="override the config master seed")
    p.add_argument("-o", "--out", type=Path, default=Path("."))
    p.set_defaults(func=_cmd_convergence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DepthRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
