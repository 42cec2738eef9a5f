"""Run every benchmark workload once untraced and once traced.

Usage (from the root of a checkout)::

    python3 perfbench/all.py [--seed 1] [--seconds 30] [--out .perfbench_out]

Prints each end-to-end metric by name with its unit and sample count, and
each workload's own study metrics.  Writes the end-to-end results with their
environment to ``<out>/end_to_end.json`` and the traced per-layer numbers,
``trace.overhead_ratio`` included, to ``<out>/per_layer.json``.  Each
workload runs in its own process, so peak memory is per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return proc.returncode or 1, {}, {}
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])["details"]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    args = parser.parse_args(argv)

    status = 0
    end_to_end, per_layer = {}, {}
    for workload in (w["name"] for w in bench["workloads"]):
        code, result, details = run(workload, args.seed, args.seconds, 0)
        status |= code
        print(f"{workload}: correct={result.get('correct')} "
              f"attempted={result.get('attempted')} failed={result.get('failed')}")
        samples = details.get("samples", {})
        for name, metric in result.get("metrics", {}).items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']} (samples={samples.get(name)})")
        for name, (value, unit, count) in details.get("workload_metrics", {}).items():
            print(f"  {name} = {value:.6g} {unit} (samples={count})")
        for name, value in details.get("unscaled", {}).items():
            print(f"  unscaled {name} = {value:.6g}")
        end_to_end[workload] = {"result": result, "details": details}

        code, result, details = run(workload, args.seed, args.seconds, 1)
        status |= code
        per_layer[workload] = {"result": result, "details": details}
        overhead = result.get("metrics", {}).get("trace.overhead_ratio", {}).get("value")
        print(f"  traced: correct={result.get('correct')} "
              f"counts_repeat={details.get('counts_repeat')} trace.overhead_ratio={overhead}")

    args.out.mkdir(parents=True, exist_ok=True)
    for name, data in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        path = args.out / f"{name}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
