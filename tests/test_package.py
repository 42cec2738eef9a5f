"""Package surface: shipped configs parse and every exported name resolves."""

from pathlib import Path

import depthrisk
from depthrisk import config_from_json, convergence_config_from_json
from depthrisk.io import load_json_object

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_configs_parse_and_exports_resolve():
    paths = sorted(CONFIGS.glob("*.json"))
    assert paths
    for path in paths:
        obj = load_json_object(path, "config")
        parse = convergence_config_from_json if "model" in obj else config_from_json
        parse(obj)
    missing = [name for name in depthrisk.__all__ if not hasattr(depthrisk, name)]
    assert missing == []
