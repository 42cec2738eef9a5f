"""depthrisk benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Workloads (closed loop: each unit starts when the previous one ends, one
process, at most two busy threads):

* ``oracle``       one ``ccte_true_oracle`` call per unit, standard 2-d Gaussian,
                   n_mc = 1e6, alpha alternating 0.5 / 0.2 (truths 3.0 / 6.0).
* ``frank_study``  one seed per unit: the acceptance-07 Frank-Gumbel study
                   at ``threads=1`` and at ``threads=2``, each through
                   ``run_replications`` + ``emit_tables``.
* ``convergence``  one ``depthrisk convergence`` invocation per unit through
                   ``cli.main`` on ``configs/convergence_smoke.json``.

Every input derives from ``--seed``.  Each unit's output is checked.

``--trace 0`` reports the end-to-end metrics: the median seconds per unit
(``unit_p50_s``), the set-up time (``setup_s``, median of three set-ups,
each in a fresh process: import, inputs, one warm-up unit) and the peak
resident memory of this process (``peak_rss_mb``).

Both times are in reference seconds.  The shared host's speed drifts by up
to 2x, over seconds and over minutes, so a fixed pure-Python calibration
loop (``calibrate``) runs before and after every set-up and every unit
(after a unit, for about a tenth of its time).  Each time is scaled by
``CAL_REF_S`` over the median loop time on both sides of it: the time it
would have taken with the loop running in ``CAL_REF_S``.  The loop does not
touch depthrisk, so a change to the program moves these times one for one.
The unscaled medians are in the details line.

``--trace 1`` reports per-layer metrics over a fixed set of units per
workload (``TRACE_UNITS``), run in cycles for ``--seconds`` (at least two),
each unit once traced and once untraced.  Work counts are those of one
cycle and must be equal in every cycle, so they repeat across runs at one
seed; self times are cycle means.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it is ``{"details": ...}``: sample counts, the workload's
own metrics by their study names, and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONVERGENCE_CONFIG = ROOT / "configs" / "convergence_smoke.json"
SETUP_SAMPLES = 3

CAL_LOOPS = 300_000
CAL_SHARE = 0.1  # of a unit's time, calibrating after it
CAL_SETUP_S = 0.1  # calibrating on each side of a set-up, and before a closed loop
# calibrate()'s usual time on the 2-core Xeon the benchmark was defined on.
CAL_REF_S = 0.025

ORACLE_N_MC = 1_000_000
ORACLE_LEVELS = ((0.5, 3.0), (0.2, 6.0))  # (alpha, closed-form truth)
ORACLE_MAX_SE = 5.0

FRANK_N = (100, 1000, 5000)
FRANK_ALPHA = (0.1, 0.5, 0.9)
FRANK_R = 100
FRANK_DELTA = (-0.01, 0.0, 0.05)
FRANK_TRUTH_N_MC = 1_000_000
FRANK_THREADS = (1, 2)


class SetupFailed(Exception):
    pass


def calibrate(seconds: float) -> list[float]:
    """Time a fixed pure-Python loop, once and then again until ``seconds``
    have passed; return each loop's seconds, the host's current speed."""
    loops = []
    end = time.perf_counter() + seconds
    while not loops or time.perf_counter() < end:
        start = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        loops.append(time.perf_counter() - start)
    return loops


def reference_factor(loops: list[float]) -> float:
    """Reference seconds per second at the speed these loop times show."""
    return CAL_REF_S / statistics.median(loops)


def import_depthrisk():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "depthrisk" / "__init__.py").is_file():
        raise SetupFailed(f"no depthrisk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import depthrisk
    import depthrisk.cli

    if Path(depthrisk.__file__).resolve().parent != SRC / "depthrisk":
        raise SetupFailed(f"imported depthrisk from {depthrisk.__file__}, not {SRC}")
    return depthrisk


def scaled(times: list[float], factors: list[float]) -> list[float]:
    """Unit times in reference seconds; ``times`` holds one entry per unit."""
    return [t * f for t, f in zip(times, factors, strict=True)]


def _csv_cells_finite(text: str) -> bool:
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            if not math.isfinite(float(cell)):
                return False
    return True


class Oracle:
    TRACE_UNITS = 10

    def __init__(self, dr, seed: int, tmp: Path):
        self.dr = dr
        self.seed = seed
        self.model = dr.DepthModel([0.0, 0.0], dr.build_spd([[1.0, 0.0], [0.0, 1.0]]))
        self.times: dict[str, list[float]] = {"call": []}

    def unit(self, k: int) -> bool:
        dr = self.dr
        alpha, truth = ORACLE_LEVELS[k % 2]
        # Built per call: the population's sampler binds sample_gaussian when
        # it is made, so a traced pass must make its own.
        population = dr.gaussian_population(self.model)
        rng = dr.RngStream(self.seed, dr.mix64(k))
        start = time.perf_counter()
        value, se = dr.ccte_true_oracle(population, alpha, ORACLE_N_MC, rng)
        self.times["call"].append(time.perf_counter() - start)
        return math.isfinite(value) and math.isfinite(se) and abs(value - truth) <= ORACLE_MAX_SE * se

    def details(self, factors: list[float]) -> dict:
        calls = scaled(self.times["call"], factors)
        return {
            "oracle_call_p50_s": (statistics.median(calls), "s", len(calls)),
            "oracle_mdraws_per_s": (len(calls) * ORACLE_N_MC / 1e6 / sum(calls), "Mdraws/s", len(calls)),
        }

    @staticmethod
    def working_set() -> dict:
        return {"oracle_batch_points_bytes": ORACLE_N_MC * 2 * 8}


class FrankStudy:
    TRACE_UNITS = 1

    def __init__(self, dr, seed: int, tmp: Path):
        self.dr = dr
        self.seed = seed
        self.tmp = tmp
        self.data = dr.FrankGumbelConfig(
            theta=5.0,
            marg1=dr.GumbelMarginal(0.0, 0.25),
            marg2=dr.GumbelMarginal(-0.5, 0.25),
            noise_var=0.005,
        )
        self.times: dict[int, list[float]] = {t: [] for t in FRANK_THREADS}

    def unit(self, k: int) -> bool:
        """Both thread counts on one seed, in alternating order."""
        dr = self.dr
        cfg = dr.ExperimentConfig(
            data_cfg=self.data,
            n_values=FRANK_N,
            alpha_values=FRANK_ALPHA,
            replications=FRANK_R,
            delta_values=FRANK_DELTA,
            truth_n_mc=FRANK_TRUTH_N_MC,
            master_seed=dr.mix64(self.seed, k),
        )
        order = FRANK_THREADS if k % 2 == 0 else FRANK_THREADS[::-1]
        tables = {}
        for threads in order:
            out = self.tmp / f"frank-t{threads}"
            start = time.perf_counter()
            report = dr.run_replications(cfg, threads=threads)
            dr.emit_tables(report, None, out)
            self.times[threads].append(time.perf_counter() - start)
            tables[threads] = [(out / name).read_text() for name in ("summary.csv", "rates.csv")]
        first, second = (tables[t] for t in FRANK_THREADS)
        return first == second and all(_csv_cells_finite(text) for text in first)

    def details(self, factors: list[float]) -> dict:
        return {
            f"frank_study_t{t}_s": (statistics.median(scaled(v, factors)), "s", len(v))
            for t, v in self.times.items()
        }

    @staticmethod
    def working_set() -> dict:
        return {
            "truth_batch_points_bytes": FRANK_TRUTH_N_MC * 2 * 8,
            "largest_replicate_points_bytes": 2 * max(FRANK_N) * 2 * 8,
        }


class Convergence:
    TRACE_UNITS = 1

    def __init__(self, dr, seed: int, tmp: Path):
        self.dr = dr
        self.argv = ["convergence", "--config", str(CONVERGENCE_CONFIG),
                     "-o", str(tmp / "convergence"), "--seed", str(seed)]
        self.csv = tmp / "convergence" / "convergence.csv"
        self.reference = None
        self.times: dict[str, list[float]] = {"run": []}

    def unit(self, k: int) -> bool:
        """Every unit reruns the same seed; its CSV must match the first one."""
        start = time.perf_counter()
        code = self.dr.cli.main(self.argv)
        self.times["run"].append(time.perf_counter() - start)
        if code != 0:
            return False
        text = self.csv.read_bytes()
        if self.reference is None:
            self.reference = text
        return text == self.reference

    def details(self, factors: list[float]) -> dict:
        runs = scaled(self.times["run"], factors)
        return {"convergence_study_s": (statistics.median(runs), "s", len(runs))}

    @staticmethod
    def working_set() -> dict:
        cfg = json.loads(CONVERGENCE_CONFIG.read_text())
        probe = 201 ** 2 + 10_000  # default ProbeGrid for d = 2
        return {
            "probe_points_bytes": probe * 2 * 8,
            "symdiff_points_bytes": cfg.get("symdiff_n_mc", 100_000) * 2 * 8,
            "boundary_points_bytes": 2 * cfg.get("boundary_m", 4096) * 2 * 8,
        }


WORKLOADS = {"oracle": Oracle, "frank_study": FrankStudy, "convergence": Convergence}


class Counter:
    """Attempted and failed units; a unit that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, workload, k: int) -> None:
        self.attempted += 1
        try:
            ok = workload.unit(k)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            print(f"unit {k} failed its output check", file=sys.stderr)


def timed(workload, counter: Counter, k: int) -> float:
    start = time.perf_counter()
    counter.run(workload, k)
    return time.perf_counter() - start


def closed_loop(workload, counter: Counter, seconds: float) -> tuple[list[float], list[float]]:
    """Run units 0, 1, ... until ``seconds`` have passed, each followed by
    calibration loops; return the unit times and the factors that turn them
    into reference seconds."""
    times, factors = [], []
    before = calibrate(CAL_SETUP_S)
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(timed(workload, counter, len(times)))
        after = calibrate(CAL_SHARE * times[-1])
        factors.append(reference_factor(before + after))
        before = after
    return times, factors


def set_up(name: str, seed: int, tmp: Path, counter: Counter):
    """Import, build the inputs, run one untimed warm-up unit, between
    calibration loops; return (workload, (seconds, reference factor))."""
    before = calibrate(CAL_SETUP_S)
    start = time.perf_counter()
    dr = import_depthrisk()
    workload = WORKLOADS[name](dr, seed, tmp)
    counter.run(workload, -1)
    elapsed = time.perf_counter() - start
    factor = reference_factor(before + calibrate(CAL_SETUP_S))
    for times in workload.times.values():
        times.clear()
    return workload, (elapsed, factor)


def setup_in_fresh_process(name: str, seed: int) -> tuple[float, float]:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if out.returncode != 0:
        raise SetupFailed(f"set-up in a fresh process failed:\n{out.stderr}")
    elapsed, factor = json.loads(out.stdout.strip().splitlines()[-1])
    return elapsed, factor


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment(name: str, seed: int) -> dict:
    import numpy
    import scipy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(index / "size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": name,
        "seed": seed,
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "computed_working_set_bytes": WORKLOADS[name].working_set(),
    }


def end_to_end(args, workload, counter: Counter, setup: tuple) -> tuple[dict, dict]:
    setups = [setup] + [setup_in_fresh_process(args.workload, args.seed)
                        for _ in range(SETUP_SAMPLES - 1)]
    times, factors = closed_loop(workload, counter, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "unit_p50_s": (statistics.median(scaled(times, factors)), "s"),
        "setup_s": (statistics.median(s * f for s, f in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "samples": {"unit_p50_s": len(times), "setup_s": len(setups), "peak_rss_mb": 1},
        "workload_metrics": workload.details(factors),
        "unscaled": {
            "unit_p50_s": statistics.median(times),
            "setup_s": statistics.median(s for s, _ in setups),
            "reference_factor_p50": statistics.median(factors),
        },
    }
    return metrics, details


def traced(args, workload, counter: Counter) -> tuple[dict, dict]:
    """Repeat cycles over the workload's fixed trace units until ``seconds`` pass.

    A cycle runs each unit once traced and once untraced, in alternating
    order, so that slow drift of the machine cancels out of the overhead.
    Every cycle must give the same work counts; self times are cycle means.
    """
    tracers = []
    traced_wall = plain_wall = 0.0
    end = time.perf_counter() + args.seconds
    while len(tracers) < 2 or time.perf_counter() < end:
        tracer = Tracer()
        for k in range(workload.TRACE_UNITS):
            for traced_now in ((True, False) if len(tracers) % 2 == 0 else (False, True)):
                if not traced_now:
                    plain_wall += timed(workload, counter, k)
                    continue
                tracer.install()
                try:
                    traced_wall += timed(workload, counter, k)
                finally:
                    tracer.remove()
        tracers.append(tracer)
    counts = [dict(t.counts) for t in tracers]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print(f"work counts differ between traced cycles: {counts}", file=sys.stderr)
    metrics = tracers[0].work_metrics()
    selfs = [t.self_seconds() for t in tracers]
    for name in selfs[0]:
        metrics[f"{name}.self_s"] = (statistics.mean(s[name] for s in selfs), "s")
    metrics["trace.overhead_ratio"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    details = {"samples": {"trace_units_per_cycle": workload.TRACE_UNITS, "cycles": len(tracers)},
               "counts_repeat": repeat}
    return metrics, details


def measure(args) -> tuple[dict, dict, Counter]:
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    counter = Counter()
    try:
        workload, setup = set_up(args.workload, args.seed, tmp, counter)
        if args.setup_only:
            return {"setup_s": (setup, "s")}, {}, counter
        if args.trace:
            metrics, details = traced(args, workload, counter)
        else:
            metrics, details = end_to_end(args, workload, counter, setup)
        details["environment"] = environment(args.workload, args.seed)
        return metrics, details, counter
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print "
                             "[seconds, reference factor]")
    args = parser.parse_args(argv)
    # The load model is one process with at most nproc busy threads.  BLAS
    # pools would add their own threads on top of the study's two pool
    # threads, so they are held at one thread (before numpy is imported, and
    # inherited by the set-up processes); the values are recorded.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    try:
        metrics, details, counter = measure(args)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(metrics["setup_s"][0]))
        return 0 if counter.failed == 0 else 1
    correct = counter.failed == 0 and details.get("counts_repeat", True)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
