"""Package surface: shipped configs parse, every exported name resolves and
has a use, every name the benchmark harness calls or traces or the README
names exists, every public count argument, pair of operands, outside array
and law parameter follows one rule, no private helper or constant is left
without a caller or reader, and the import stays light."""

import ast
import importlib
import importlib.util
import json
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
    ConvergenceConfig,
    DepthModel,
    DepthRiskError,
    DimensionMismatch,
    DomainError,
    ExperimentConfig,
    FrankGumbelConfig,
    GaussianConfig,
    GumbelMarginal,
    LevelSetSpec,
    RngStream,
    Sample,
    attach_costs,
    boundary_points,
    build_spd,
    ccte_true_oracle,
    ccte_under_model,
    config_from_json,
    convergence_config_from_json,
    estimate_population_model,
    frank_pair,
    gaussian_population,
    hausdorff_report,
    in_lower_set,
    mahalanobis_sq,
    mhd,
    mhd_gradient,
    quad_forms,
    rate_slope,
    sample_gaussian,
    sample_risk_factors,
    sup_norm_distance,
    sym_diff_volume,
)
from depthrisk.experiments import pool_size
from depthrisk.io import load_json_object
from depthrisk.linalg import cholesky_lower

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src" / "depthrisk"


def test_configs_parse_and_exports_resolve():
    paths = sorted(CONFIGS.glob("*.json"))
    assert paths
    for path in paths:
        obj = load_json_object(path, "config")
        parse = convergence_config_from_json if "seeds" in obj else config_from_json
        parse(obj)
    missing = [name for name in depthrisk.__all__ if not hasattr(depthrisk, name)]
    assert missing == []


def benchmark_targets():
    """The (span, module, attribute, counters) entries of perfbench's spans."""
    # spans.py imports only the standard library, so loading it by path is safe
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_benchmark_names_resolve():
    missing = []
    for _, module, attr, _ in benchmark_targets():
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
GAUSSIAN = GaussianConfig((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))


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
    "sym_diff_volume": lambda a, b: sym_diff_volume(a, b, 1000, RngStream(1)),
}


@pytest.mark.parametrize("entry", sorted(DIMS_ENTRY_POINTS))
def test_operands_of_two_dimensions_are_refused(entry):
    with pytest.raises(DimensionMismatch, match=r" dimensions differ: 2 vs 3$"):
        DIMS_ENTRY_POINTS[entry](SPEC, SPEC_3D)


def config_texts(cls, field, prefix=""):
    """The problem texts a config class's ``_checks`` table gives ``field``,
    named ``prefix + field``."""
    name = prefix + field
    return {f"{name}: wrong type"} | {f"{name}: {why}" for key, _, why in cls._checks
                                      if key == field}


# every public entry point of an outside array or a law parameter: the name
# an array's message gives it, or the problem texts of the parameter's
# config class, and a call putting a bad value in place of one good number
VALUE_ENTRY_POINTS = {
    "Sample.points": ("points", lambda v: Sample([[v, 0.0], [1.0, 2.0]])),
    "Sample.costs": ("costs", lambda v: Sample(np.eye(2), [v, 1.0])),
    "DepthModel": ("mu", lambda v: DepthModel([v, 0.0], MODEL.sigma)),
    "build_spd": ("matrix entries", lambda v: build_spd([[1.0, v], [v, 1.0]])),
    "build_spd.chol": ("chol", lambda v: build_spd(np.eye(2), chol=[[1.0, 0.0], [v, 1.0]])),
    "cholesky_lower": ("matrix entries", lambda v: cholesky_lower([[1.0, 0.0], [v, 1.0]])),
    "mhd": ("x", lambda v: mhd([v, 0.0], MODEL)),
    "mahalanobis_sq": ("x", lambda v: mahalanobis_sq([[0.0, 0.0], [v, 0.0]], MODEL)),
    "mhd_gradient": ("x", lambda v: mhd_gradient([0.0, v], MODEL)),
    "in_lower_set": ("x", lambda v: in_lower_set([[0.0, 0.0], [v, 0.0]], SPEC)),
    "quad_forms": ("rows", lambda v: quad_forms(MODEL.sigma, [[v, 0.0]])),
    "quad_forms.center": ("center", lambda v: quad_forms(MODEL.sigma, [[0.0, 0.0]], [v, 0.0])),
    "rate_slope.n": ("points", lambda v: rate_slope([(v, 1.0), (2, 0.5), (4, 0.2)])),
    "rate_slope.stat": ("points", lambda v: rate_slope([(1, v), (2, 0.5), (4, 0.2)])),
    "frank_pair.u": ("u", lambda v: frank_pair(v, 0.5, 5.0)),
    "frank_pair.w": ("w", lambda v: frank_pair([0.5, 0.5], [0.5, v], 5.0)),
    "frank_pair.theta": (config_texts(FrankGumbelConfig, "theta"),
                         lambda v: frank_pair(0.5, 0.5, v)),
    "FrankGumbelConfig.theta": (config_texts(FrankGumbelConfig, "theta"),
                                lambda v: FrankGumbelConfig(v, FRANK.marg1, FRANK.marg2)),
    "FrankGumbelConfig.marg1.mu": (config_texts(GumbelMarginal, "mu", "marginals[0]."),
                                   lambda v: FrankGumbelConfig(5.0, GumbelMarginal(v, 1.0),
                                                               FRANK.marg2)),
    "FrankGumbelConfig.marg2.beta": (config_texts(GumbelMarginal, "beta", "marginals[1]."),
                                     lambda v: FrankGumbelConfig(5.0, FRANK.marg1,
                                                                 GumbelMarginal(0.0, v))),
    "attach_costs": (config_texts(GaussianConfig, "noise_var"),
                     lambda v: attach_costs(Sample(np.eye(2)), v, RngStream(1))),
    "GaussianConfig.noise_var": (config_texts(GaussianConfig, "noise_var"),
                                 lambda v: GaussianConfig((0.0,), ((1.0,),), v)),
    "FrankGumbelConfig.noise_var": (config_texts(FrankGumbelConfig, "noise_var"), lambda v:
                                    FrankGumbelConfig(5.0, FRANK.marg1, FRANK.marg2, v)),
    "ExperimentConfig.n_values": (config_texts(ExperimentConfig, "n_values"),
                                  lambda v: ExperimentConfig(FRANK, (v, 8), (0.5,), 2)),
    "ConvergenceConfig.n_values": (config_texts(ExperimentConfig, "n_values"),
                                   lambda v: ConvergenceConfig(GAUSSIAN, (v, 8), 1)),
    "ExperimentConfig.master_seed": (config_texts(ExperimentConfig, "master_seed"), lambda v:
                                     ExperimentConfig(FRANK, (8,), (0.5,), 2, master_seed=v)),
    "ConvergenceConfig.master_seed": (config_texts(ExperimentConfig, "master_seed"),
                                      lambda v: ConvergenceConfig(GAUSSIAN, (8,), 1,
                                                                  master_seed=v)),
}


@pytest.mark.parametrize("entry", sorted(VALUE_ENTRY_POINTS))
def test_values_are_finite_numbers(entry):
    rule, call = VALUE_ENTRY_POINTS[entry]
    # NaN, both infinities, a numeric string and a bool: never a NaN result,
    # a silent answer or a bare ValueError, TypeError or IndexError
    for bad in (np.nan, np.inf, -np.inf, "0.5", True):
        with pytest.raises(DepthRiskError) as exc:
            call(bad)
        if isinstance(rule, str):
            assert str(exc.value) == f"{rule} must be finite numbers"
        else:  # a law parameter: its config's text, one rule for both
            assert str(exc.value) in rule


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


def names_read(trees):
    """Names the syntax trees read: a name is read by a load or an attribute
    access; assigning it is not a read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    }


def test_every_private_helper_has_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    helpers = {
        helper: name
        for name, tree in trees.items()
        for node in tree.body
        for helper in module_level_names(node)
        if helper.startswith("_") and not helper.startswith("__")
    }
    used = names_read(trees.values())
    assert sorted(f"{module}:{helper}" for helper, module in helpers.items()
                  if helper not in used) == []


# exports that no library path, benchmark or acceptance claim reads, and why
# they are public
UNREAD_EXPORTS = {}


def test_every_export_has_a_use():
    files = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    files += [PERFBENCH / "run.py", PERFBENCH / "spans.py", ROOT / "tests" / "test_acceptance.py"]
    used = names_read(ast.parse(path.read_text()) for path in files)
    # the harness traces the names of its span targets, given as strings
    used.update(part for _, _, attr, _ in benchmark_targets() for part in attr.split("."))
    unread = sorted(name for name in depthrisk.__all__ if name not in used)
    assert unread == sorted(UNREAD_EXPORTS)


def test_readme_names_resolve():
    # a deleted or renamed name must not live on in the README: every
    # `module.name` of a depthrisk module or export, and every name a
    # python block imports from depthrisk, resolves
    text = (ROOT / "README.md").read_text()
    owners = {path.stem: f"depthrisk.{path.stem}" for path in SRC.glob("*.py")}
    owners["depthrisk"] = "depthrisk"
    missing = []
    for owner, name in re.findall(r"`(?:depthrisk\.)?(\w+)\.(\w+)", text):
        if owner in owners:
            found = hasattr(importlib.import_module(owners[owner]), name)
        elif owner in depthrisk.__all__:
            found = hasattr(getattr(depthrisk, owner), name)
        else:
            continue
        if not found:
            missing.append(f"{owner}.{name}")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for node in (node for block in blocks for node in ast.walk(ast.parse(block))):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "depthrisk":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []


# one call of each function whose math scipy also has (the tests' reference
# for it): they load nothing of scipy, and their reprs (of floats, so exact)
# agree between a fresh process and this one
SCIPY_MATH_CALLS = """[
    repr(dr.mhd_gradient([[1.0, 2.0], [0.5, -1.5]], model).tolist()),
    repr(dr.GaussianConfig((0.5, -1.0), ((2.0, 0.3), (0.3, 1.0))).exact_truth([0.2, 0.5])),
    repr(dr.hausdorff_report(spec, dr.LevelSetSpec(model, 0.3), 64).resolution),
]"""

# a fresh import, then one small call of each benchmark workload's path:
# the oracle, a Frank-Gumbel study with its tables, a convergence study
LIGHT_IMPORT_CODE = f"""
import json, sys
import depthrisk as dr, depthrisk.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_loaded()]
model = dr.DepthModel([0.5, -1.0], dr.build_spd([[2.0, 0.3], [0.3, 1.0]]))
spec = dr.LevelSetSpec(model, 0.5)
dr.ccte_true_oracle(dr.gaussian_population(model), 0.5, 100_000, dr.RngStream(1))
frank = dr.FrankGumbelConfig(5.0, dr.GumbelMarginal(0.0, 0.25), dr.GumbelMarginal(-0.5, 0.25))
study = dr.ExperimentConfig(frank, (20, 40, 80), (0.5,), 2, delta_values=(0.5,))
dr.emit_tables(dr.run_replications(study), None, sys.argv[1])
gaussian = dr.GaussianConfig((0.5, -1.0), ((2.0, 0.3), (0.3, 1.0)))
dr.run_convergence(dr.ConvergenceConfig(gaussian, (20, 40), 2, boundary_m=64))
loaded.append(scipy_loaded())
calls = {SCIPY_MATH_CALLS}
loaded.append(scipy_loaded())
print(json.dumps([loaded, calls]))
"""


def test_import_loads_no_heavy_scipy_modules(tmp_path):
    # numpy is the one runtime dependency: import depthrisk, the workload
    # paths and the functions whose math scipy also has load nothing of
    # scipy.  On a 2-core host, with scipy.linalg, .special and .spatial
    # imported at the top of the modules, a fresh `import depthrisk,
    # depthrisk.cli` took 0.47 s and 67.5 MB (medians of 9), against 0.13 s
    # and 31.2 MB without
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", LIGHT_IMPORT_CODE, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded, calls = json.loads(out)
    assert loaded == [[], [], []]
    model = DepthModel([0.5, -1.0], build_spd([[2.0, 0.3], [0.3, 1.0]]))
    namespace = {"dr": depthrisk, "model": model, "spec": LevelSetSpec(model, 0.5)}
    assert calls == eval(SCIPY_MATH_CALLS, namespace)
    if sys.version_info >= (3, 11):  # tomllib
        import tomllib

        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        assert project["dependencies"] == ["numpy>=1.24"]
