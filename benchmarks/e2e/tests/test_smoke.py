"""Every workload end to end at ``--scale smoke``, plus BENCHMARK.json.

The smoke run goes through the same ``run.py`` processes as a real run,
traced and untraced, on inputs small enough to finish in seconds.
"""

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from benchmarks.e2e.__main__ import run_document
from benchmarks.e2e.harness import ROOT, load_spec

SPEC = load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Per-layer metrics each workload must actually exercise.
EXERCISED = {
    "figure2": ["observer.records", "correlator.refs", "cluster.builds",
                "investigators.self_s", "kernel.stat_calls",
                "analysis.render_s"],
    "refill": ["observer.records", "cluster.builds", "hoard.calls",
               "baselines.self_s", "missfree.windows"],
    "population": ["runner.shards", "runner.shards_restored", "store.puts",
                   "store.gets", "serde.self_s", "live.self_s",
                   "analysis.report_s", "workload.generate_s"],
    "service": ["tenant.apply_s", "tenant.fill_ms_p50", "protocol.decode_s",
                "daemon.loop_busy_share", "service.events_per_s",
                "correlator.refs", "cluster.builds"],
}


@pytest.fixture(scope="module")
def smoke_document():
    start = time.perf_counter()
    document = run_document(seed=1, workloads=WORKLOADS, seconds=1.0,
                            trace=True, scale="smoke")
    document["elapsed"] = time.perf_counter() - start
    return document


def test_smoke_run_is_quick(smoke_document):
    assert smoke_document["elapsed"] < 60.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_workload_emits_every_metric_without_errors(smoke_document,
                                                          workload):
    result = smoke_document["workloads"][workload]
    assert result["error_rate"]["value"] == 0
    assert result["attempted"] >= 1 and result["correct"]
    for section, declared in (("metrics", SPEC["end_to_end"]),
                              ("per_layer", SPEC["per_layer"])):
        emitted = result[section]
        assert list(emitted) == [entry["name"] for entry in declared]
        for entry in declared:
            metric = emitted[entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float))
    for entry in SPEC["end_to_end"]:
        assert result["metrics"][entry["name"]]["value"] > 0
        assert result["metrics"][entry["name"]]["bound"] == entry["bound"]
    for name in EXERCISED[workload]:
        assert result["per_layer"][name]["value"] > 0, name
    coverage = result["per_layer"]["trace.stage_coverage"]["value"]
    assert 0.95 <= coverage <= 1.05


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [entry["name"] for entry in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in (
            "lower", "higher")
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_fails_without_the_program_source(tmp_path):
    """Given only BENCHMARK.json and the benchmark, run.py must exit
    non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "figure2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    for line in completed.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
