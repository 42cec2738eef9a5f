"""Package surface: shipped configs parse, every exported name resolves,
every name the benchmark harness calls or traces exists, every public count
argument and every pair of operands follows one rule, no private helper or
constant is left without a caller or reader, and the import stays light."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depthrisk
import depthrisk.cli  # noqa: F401  (the harness calls depthrisk.cli.main)
from depthrisk import (
    DepthModel,
    DimensionMismatch,
    DomainError,
    FrankGumbelConfig,
    GumbelMarginal,
    LevelSetSpec,
    RngStream,
    Sample,
    boundary_points,
    build_spd,
    ccte_true_oracle,
    ccte_under_model,
    config_from_json,
    convergence_config_from_json,
    estimate_population_model,
    gaussian_population,
    hausdorff_report,
    radial_sym_diff_volume,
    sample_gaussian,
    sample_risk_factors,
    sup_norm_distance,
    sym_diff_probability,
    sym_diff_volume,
)
from depthrisk.experiments import pool_size
from depthrisk.io import load_json_object

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "depthrisk"


def test_configs_parse_and_exports_resolve():
    paths = sorted(CONFIGS.glob("*.json"))
    assert paths
    for path in paths:
        obj = load_json_object(path, "config")
        parse = convergence_config_from_json if "model" in obj else config_from_json
        parse(obj)
    missing = [name for name in depthrisk.__all__ if not hasattr(depthrisk, name)]
    assert missing == []


def test_benchmark_names_resolve():
    # spans.py imports only the standard library, so loading it by path is safe
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, module, attr, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):  # "Class.method" is looked up on the class
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    used = set(re.findall(r"\bdr\.(\w+)", (PERFBENCH / "run.py").read_text()))
    assert used
    missing += [f"depthrisk.{name}" for name in sorted(used) if not hasattr(depthrisk, name)]
    assert missing == []


MODEL = DepthModel(np.zeros(2), build_spd(np.eye(2)))
SPEC = LevelSetSpec(MODEL, 0.5)
FRANK = FrankGumbelConfig(theta=5.0, marg1=GumbelMarginal(0.0, 0.25),
                          marg2=GumbelMarginal(-0.5, 0.25))


def _gaussian_rows(n, rng):
    return sample_gaussian(n, MODEL, rng).points


# every public count argument: its name, its least value, a count it
# accepts and a call taking the count
COUNT_ENTRY_POINTS = {
    "RngStream.uniforms": ("n", 0, 0, lambda n: RngStream(1).uniforms(n)),
    "RngStream.normals": ("n", 0, 0, lambda n: RngStream(1).normals(n)),
    "sample_risk_factors": ("n", 1, 1, lambda n: sample_risk_factors(n, FRANK, RngStream(1))),
    "sample_gaussian": ("n", 1, 1, lambda n: sample_gaussian(n, MODEL, RngStream(1))),
    "boundary_points": ("m", 8, 8, lambda m: boundary_points(SPEC, m)),
    "hausdorff_report": ("m", 64, 64, lambda m: hausdorff_report(SPEC, SPEC, m)),
    "pool_size": ("threads", 1, 1, lambda threads: pool_size(threads, 5)),
    "ccte_under_model": ("n1", 1, 1, lambda n1: ccte_under_model(
        MODEL, Sample(np.eye(2), np.ones(2)), 0.5, n1)),
    "ccte_true_oracle": ("n_mc", 100_000, 100_000, lambda n_mc: ccte_true_oracle(
        gaussian_population(MODEL), 0.5, n_mc, RngStream(1))),
    # two points of the plane cannot be fitted, 1000 can
    "estimate_population_model": ("n_mc", 2, 1000, lambda n_mc: estimate_population_model(
        _gaussian_rows, n_mc, RngStream(1))),
    "sym_diff_volume": ("n_mc", 1000, 1000,
                        lambda n_mc: sym_diff_volume(SPEC, SPEC, n_mc, RngStream(1))),
    "sym_diff_probability": ("n_mc", 1, 1, lambda n_mc: sym_diff_probability(
        SPEC, SPEC, _gaussian_rows, n_mc, RngStream(1))),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_count_arguments_are_integers(entry):
    name, least, ok, call = COUNT_ENTRY_POINTS[entry]
    # the bools, strings and fractions that used to be truncated, rounded
    # or failed with a bare TypeError, a fraction above a good count, and
    # one count too few, all in the one message form
    for bad in (2.5, True, "3", ok + 0.5, least - 1):
        with pytest.raises(DomainError, match=rf"^{name} must be an integer >= {least}, got "):
            call(bad)
    call(np.int64(ok))


SPEC_3D = LevelSetSpec(DepthModel(np.zeros(3), build_spd(np.eye(3))), 0.5)

# every public function of two models, two level sets or a model and a
# sample, called on the 2-d and the 3-d side of a pair of level sets
DIMS_ENTRY_POINTS = {
    "ccte_under_model": lambda a, b: ccte_under_model(
        a.model, Sample(np.zeros((2, b.dim)), np.ones(2)), 0.5, 1),
    "sup_norm_distance": lambda a, b: sup_norm_distance(a.model, b.model),
    "hausdorff_report": lambda a, b: hausdorff_report(a, b, 64),
    "radial_sym_diff_volume": radial_sym_diff_volume,
    "sym_diff_volume": lambda a, b: sym_diff_volume(a, b, 1000, RngStream(1)),
    "sym_diff_probability": lambda a, b: sym_diff_probability(
        a, b, _gaussian_rows, 1, RngStream(1)),
}


@pytest.mark.parametrize("entry", sorted(DIMS_ENTRY_POINTS))
def test_operands_of_two_dimensions_are_refused(entry):
    with pytest.raises(DimensionMismatch, match=r" dimensions differ: 2 vs 3$"):
        DIMS_ENTRY_POINTS[entry](SPEC, SPEC_3D)


def module_level_names(node):
    """Names a module-level statement defines: a def or class, or the plain
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_private_helper_has_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    helpers = {
        helper: name
        for name, tree in trees.items()
        for node in tree.body
        for helper in module_level_names(node)
        if helper.startswith("_") and not helper.startswith("__")
    }
    # a name is read by a load or an attribute access; assigning it is not a read
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    }
    assert sorted(f"{module}:{helper}" for helper, module in helpers.items()
                  if helper not in used) == []


def test_import_loads_no_heavy_scipy_modules():
    # importing scipy.stats or scipy.integrate would add 0.1 to 0.6 s to
    # every start-up; the library needs neither
    code = ("import sys, depthrisk, depthrisk.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
