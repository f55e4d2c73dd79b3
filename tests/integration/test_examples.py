"""The fast examples run as written: each as its own ``python`` process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def run_example(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "examples" / name)],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", ["quickstart.py", "investigators_demo.py",
                                  "web_prefetching.py"])
def test_example_exits_cleanly(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_investigators_demo_clusters_the_whole_project():
    stdout = run_example("investigators_demo.py").stdout
    with_investigators = stdout.split("With investigators:", 1)[1]
    first_cluster = with_investigators.strip().splitlines()[0].strip()
    assert first_cluster == ("['/proj/Makefile', '/proj/gadget.c', "
                             "'/proj/widget.c', '/proj/widget.h']")
