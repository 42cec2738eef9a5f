"""Package surface: shipped configs parse, every exported name resolves, and
every name the benchmark harness calls or traces exists."""

import importlib
import importlib.util
import re
from pathlib import Path

import depthrisk
import depthrisk.cli  # noqa: F401  (the harness calls depthrisk.cli.main)
from depthrisk import config_from_json, convergence_config_from_json
from depthrisk.io import load_json_object

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
PERFBENCH = ROOT / "perfbench"


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
