"""Span tracing of depthrisk's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``depthrisk`` namespace that holds it.  Modules bind names at import
(``depthrisk.ccte.in_lower_set``, ``depthrisk.experiments.ccte_hat``, ...),
so patching only the defining module would miss most calls.
``Tracer.remove`` puts the originals back.  No library file changes.

A span carries its name, start, end, parent and thread.  Spans opened by a
worker thread with nothing open on that thread are children of the span
open on the installing thread: during a threaded study that is the open
``experiments.run_replications`` span, whose thread pool runs them.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


def _size(out) -> int:
    return int(getattr(out, "size", 1))


def _members(out) -> int:
    return int(out.sum()) if hasattr(out, "sum") else int(bool(out))


# (span name, module, attribute, {counter suffix: f(args, kwargs, result)}).
# Counts are read from arguments and results only, so they do not depend on
# how a layer does its work.
TARGETS = [
    ("rng.normals", "depthrisk.rng", "RngStream.normals",
     {"draws": lambda a, k, out: _size(out)}),
    ("rng.uniforms", "depthrisk.rng", "RngStream.uniforms",
     {"draws": lambda a, k, out: _size(out)}),
    ("sampling.frank_pair", "depthrisk.sampling", "frank_pair",
     {"pairs": lambda a, k, out: _size(out[1])}),
    ("sampling.sample_risk_factors", "depthrisk.sampling", "sample_risk_factors", {}),
    ("sampling.sample_gaussian", "depthrisk.sampling", "sample_gaussian", {}),
    ("sampling.attach_costs", "depthrisk.sampling", "attach_costs", {}),
    ("linalg.quad_forms", "depthrisk.linalg", "quad_forms",
     {"rows": lambda a, k, out: _size(out)}),
    ("linalg.build_spd", "depthrisk.linalg", "build_spd",
     {"calls": lambda a, k, out: 1}),
    ("depth.mhd", "depthrisk.depth", "mhd",
     {"points": lambda a, k, out: _size(out)}),
    ("depth.fit_model", "depthrisk.depth", "fit_model",
     {"calls": lambda a, k, out: 1}),
    ("depth.sup_norm_distance", "depthrisk.depth", "sup_norm_distance", {}),
    ("levelset.in_lower_set", "depthrisk.levelset", "in_lower_set",
     {"points": lambda a, k, out: _size(out),
      "members": lambda a, k, out: _members(out)}),
    ("levelset.hausdorff_report", "depthrisk.levelset", "hausdorff_report", {}),
    ("levelset.sym_diff_volume", "depthrisk.levelset", "sym_diff_volume", {}),
    ("ccte.ccte_true_oracle", "depthrisk.ccte", "ccte_true_oracle",
     {"draws": lambda a, k, out: int(k["n_mc"] if "n_mc" in k else a[2])}),
    ("ccte.estimate_population_model", "depthrisk.ccte", "estimate_population_model", {}),
    ("ccte.ccte_hat", "depthrisk.ccte", "ccte_hat",
     {"calls": lambda a, k, out: 1,
      "degenerate": lambda a, k, out: int(out.degenerate)}),
    ("experiments.run_replications", "depthrisk.experiments", "run_replications", {}),
    ("experiments.emit_tables", "depthrisk.experiments", "emit_tables", {}),
    ("cli.main", "depthrisk.cli", "main", {}),
]

SPAN_NAMES = [t[0] for t in TARGETS]

# Ratio metric: (numerator counter, denominator counter).  The numerators
# are reported only through their ratio.
RATIOS = {
    "levelset.in_lower_set.hit_ratio":
        ("levelset.in_lower_set.members", "levelset.in_lower_set.points"),
    "ccte.ccte_hat.degenerate_ratio": ("ccte.ccte_hat.degenerate", "ccte.ccte_hat.calls"),
}


class Tracer:
    """Collects spans and work counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span id, name, parent id, thread, start, end)
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, parent, threading.get_ident(), start, end))
            if counters:
                got = [(f"{name}.{key}", count(args, kwargs, out))
                       for key, count in counters.items()]
                with self._lock:
                    for key, value in got:
                        self.counts[key] += value
            return out

        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded depthrisk namespace."""
        self._local.stack = self._main_stack
        spaces = [m for n, m in sorted(sys.modules.items())
                  if n == "depthrisk" or n.startswith("depthrisk.")]
        for name, module, attr, counters in TARGETS:
            owner = sys.modules[module]
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, counters))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counters)
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._patched.append((space, key, original))
                        setattr(space, key, wrapper)

    def remove(self) -> None:
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()
        self._local.stack = None

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus the union of child intervals."""
        children = defaultdict(list)
        for _sid, _name, parent, _tid, start, end in self.spans:
            children[parent].append((start, end))
        totals = {name: 0.0 for name in SPAN_NAMES}
        for sid, name, _parent, _tid, start, end in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, reach)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start) - covered
        return totals

    def work_metrics(self) -> dict[str, tuple[float, str]]:
        """Work counts and ratios, as (value, unit)."""
        metrics = {}
        numerators = {num for num, _ in RATIOS.values()}
        for name, _module, _attr, counters in TARGETS:
            for key in counters:
                counter = f"{name}.{key}"
                if counter not in numerators:
                    metrics[counter] = (self.counts.get(counter, 0), "count")
        for ratio, (num, den) in RATIOS.items():
            total = self.counts.get(den, 0)
            metrics[ratio] = (self.counts.get(num, 0) / total if total else 0.0, "ratio")
        return metrics
