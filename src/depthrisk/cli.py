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
from .depth import DepthModel, fit_model, mhd, mhd_gradient
from .errors import ConfigError, DepthRiskError, IoError
from .experiments import (
    _MASTER_SEED_CHECK,
    config_from_json,
    convergence_config_from_json,
    convergence_csv_text,
    emit_tables,
    run_convergence,
    run_replications,
)
from .io import atomic_write_text, csv_text, load_json_object, make_out_dir, read_matrix_csv
from .levelset import LevelSetSpec, boundary_points, hausdorff_report, sym_diff_volume
from .rng import RngStream, mix64
from .sampling import Sample

# Substream tag of the levelset diagnostics, disjoint from the study tags.
_TAG_SYMDIFF = 103


def _say(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _load_model(path: Path) -> DepthModel:
    obj = load_json_object(path, "model")
    try:
        return DepthModel.from_json(obj)
    except DepthRiskError as exc:
        raise ConfigError(f"model: {path}: {exc}") from exc


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
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ConfigError(f"grid: axis {i + 1}: bounds must be finite")
        if count < 1:
            raise ConfigError(f"grid: axis {i + 1}: count must be >= 1")
        axes.append(np.linspace(lo, hi, count))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.reshape(-1) for m in mesh])


def _cmd_depth(args) -> int:
    if args.model is not None:
        model = _load_model(args.model)
    else:
        pts = read_matrix_csv(args.fit)
        model = fit_model(Sample(pts))
    if args.points is not None:
        points = Sample(read_matrix_csv(args.points, expect_cols=model.dim)).points
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
    out = make_out_dir(args.out) / "depths.csv"
    atomic_write_text(out, csv_text(header, rows))
    _say(f"wrote {out} ({points.shape[0]} rows)")
    return 0


def _cmd_levelset(args) -> int:
    _, seed_ok, seed_rule = _MASTER_SEED_CHECK
    if not seed_ok(args.seed):
        raise ConfigError(f"seed: {seed_rule}")
    model = _load_model(args.model)
    spec = LevelSetSpec(model, args.alpha)
    pts = boundary_points(spec, args.boundary_m)
    diagnostics = None
    if args.model2 is not None:
        # diagnostics before any write: a rejected argument leaves no output
        other = LevelSetSpec(_load_model(args.model2), args.alpha)
        report = hausdorff_report(spec, other, args.boundary_m)
        rng = RngStream(args.seed, mix64(_TAG_SYMDIFF))
        volume, se = sym_diff_volume(spec, other, args.symdiff_n_mc, rng)
        doc = {
            "alpha": args.alpha,
            "boundary_m": args.boundary_m,
            "hausdorff": report.distance,
            "resolution": report.resolution,
            "seed": args.seed,
            "symdiff_n_mc": args.symdiff_n_mc,
            "symdiff_se": se,
            "symdiff_volume": volume,
        }
        diagnostics = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    out = make_out_dir(args.out)
    header = ",".join(f"x{i + 1}" for i in range(model.dim))
    atomic_write_text(out / "boundary.csv", csv_text(header, pts))
    _say(f"wrote {out / 'boundary.csv'} ({pts.shape[0]} rows)")
    if diagnostics is not None:
        atomic_write_text(out / "diagnostics.json", diagnostics)
        _say(f"wrote {out / 'diagnostics.json'}")
    return 0


def _cmd_ccte(args) -> int:
    level_pts = read_matrix_csv(args.level)
    cost_mat = read_matrix_csv(args.cost)
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
        out = make_out_dir(args.out) / "estimate.json"
        atomic_write_text(out, text + "\n")
        _say(f"wrote {out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = config_from_json(load_json_object(args.config, "config"))
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


def _cmd_convergence(args) -> int:
    cfg = convergence_config_from_json(load_json_object(args.config, "config"))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    distances = run_convergence(cfg, progress=_say)
    out = make_out_dir(args.out) / "convergence.csv"
    atomic_write_text(out, convergence_csv_text(cfg.n_values, distances))
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
    except (DepthRiskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
