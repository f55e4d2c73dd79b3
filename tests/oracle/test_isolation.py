"""The oracle stays out of production: no module under src/repro
imports the ``tests`` package."""

import ast
import os

import repro

SOURCE = os.path.dirname(repro.__file__)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def _imports_tests(module):
    return module == "tests" or module.startswith("tests.")


def test_no_production_module_imports_tests():
    offenders = []
    scanned = 0
    for directory, _, files in os.walk(SOURCE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            scanned += 1
            offenders.extend(
                f"{os.path.relpath(path, SOURCE)}: {module}"
                for module in _imported_modules(tree)
                if _imports_tests(module))
    assert scanned > 50   # the walk really covered the package
    assert offenders == []


def test_detector_sees_both_import_forms():
    tree = ast.parse("import tests.oracle\n"
                     "from tests.oracle.engine import oracle_correlator\n"
                     "from repro.core import Correlator\n"
                     "import testsuite\n")
    assert [m for m in _imported_modules(tree) if _imports_tests(m)] == \
        ["tests.oracle", "tests.oracle.engine"]
