"""Importing the package loads no third-party module it does not declare.

pyproject.toml declares the runtime dependencies (numpy alone).  A
module that imported anything else would cost every process its import
time and memory, and a clean install would not have it.  The imports
run in a fresh interpreter, so nothing the test session loaded counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")   # Python 3.11+

ROOT = Path(__file__).resolve().parents[2]

IMPORT_ALL = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
         if not info.name.endswith(".__main__")]
for name in names:
    importlib.import_module(name)
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"modules": len(names), "loaded": sorted(loaded)}))
"""


def test_imports_only_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as stream:
        declared = set(tomllib.load(stream)["project"]["dependencies"])
    assert declared == {"numpy"}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", IMPORT_ALL],
                            capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["modules"] > 50   # the walk found the package's modules
    third_party = {name for name in report["loaded"]
                   if name != "repro" and not name.startswith("_")
                   and name not in sys.stdlib_module_names}
    assert third_party <= declared, third_party - declared
