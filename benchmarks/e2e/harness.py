"""One workload, one run: the interface ``BENCHMARK.json`` declares.

``run.py --workload W --seed N --seconds S --trace 0|1`` lands here.
The workload generates its inputs from the seed (timed: ``setup_s``),
measures for about ``S`` seconds, checks its outputs, and the last
line printed is one JSON object::

    {"correct": true, "attempted": 26, "failed": 0,
     "metrics": {"wall_s": {"value": 15.2, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
no tracing installed and timed in reference seconds (see ``speed.py``:
wall time corrected for the shared host's changing speed by probes
taken during the run); with ``--trace 1`` they are the per-layer ones
from a traced pass, and the lines above the JSON hold the stage table
and the paper's section 5.3 overhead figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    TypeVar)

from benchmarks.e2e import layers
from benchmarks.e2e.speed import Interval
from benchmarks.e2e.tracer import Instrumentation, Tracer, stage_table

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch space for stores and sockets; inside the checkout, removed
#: after every run.
WORK_ROOT = ROOT / ".e2e_run"

#: Workload name -> module implementing ``measure`` and ``trace``.
WORKLOADS = {
    "figure2": "benchmarks.e2e.replay",
    "refill": "benchmarks.e2e.replay",
    "population": "benchmarks.e2e.population",
    "service": "benchmarks.e2e.service",
}

SCALES = ("full", "smoke")

#: Trace seed of the repository's reference traces (the ones behind
#: ``benchmarks/output/figure2.txt``).
REFERENCE_TRACE_SEED = 1

_T = TypeVar("_T")


@dataclass(frozen=True)
class RunContext:
    workload: str
    seed: int
    seconds: float
    scale: str
    workdir: str

    @property
    def smoke(self) -> bool:
        return self.scale == "smoke"


@dataclass
class Outcome:
    """What one run attempted, what failed, and what it measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failure is reported by name."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.report.append(f"FAILED: {what}")


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as stream:
        spec: Dict[str, Any] = json.load(stream)
    return spec


# ----------------------------------------------------------------------
# measurement helpers shared by the workloads
# ----------------------------------------------------------------------
def timed_setup(make: Callable[[], _T],
                times: int) -> Tuple[_T, List[Interval]]:
    """Run the input generation *times* times; (last inputs, the
    ``perf_counter`` interval of each generation)."""
    intervals: List[Interval] = []
    inputs: Optional[_T] = None
    for _ in range(max(1, times)):
        inputs = None   # let the previous copy go before making the next
        start = time.perf_counter()
        inputs = make()
        intervals.append((start, time.perf_counter()))
    assert inputs is not None
    return inputs, intervals


def repeat_for(seconds: float, once: Callable[[], _T]
               ) -> List[Tuple[float, _T]]:
    """Call *once*, then again while the next call is expected to
    finish inside *seconds*; (duration, result) pairs."""
    runs: List[Tuple[float, _T]] = []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        result = once()
        runs.append((time.perf_counter() - start, result))
        elapsed = time.perf_counter() - began
        typical = statistics.mean(duration for duration, _ in runs)
        if elapsed + typical > seconds:
            return runs


def peak_rss_mb(children: bool = False) -> float:
    """High-water RSS of this process (or its largest reaped child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_pass(run: Callable[[], _T]
                ) -> Tuple[_T, Tracer, layers.LayerProbe, float]:
    """Run once with every layer wrapped; (result, tracer, probe, wall)."""
    tracer = layers.new_tracer()
    probe = layers.LayerProbe()
    with Instrumentation(tracer) as instrumentation:
        layers.install(instrumentation, probe)
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
    return result, tracer, probe, wall


def trace_report(outcome: Outcome, tracer: Tracer,
                 probe: layers.LayerProbe, traced_wall: float,
                 untraced_wall: float, extras: Dict[str, float]) -> None:
    """Per-layer metrics plus the stage table for one traced pass."""
    stats = tracer.summary()
    covered = sum(stat.self_seconds for stat in stats.values())
    extras = dict(extras)
    extras["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    extras["trace.stage_coverage"] = covered / traced_wall
    outcome.metrics.update(layers.derive(tracer, probe, extras))
    outcome.report.append(f"stage table (traced wall {traced_wall:.3f} s, "
                          f"untraced {untraced_wall:.3f} s)")
    outcome.report.append(stage_table(stats, traced_wall, layers.ORDER))


# ----------------------------------------------------------------------
# the entry point
# ----------------------------------------------------------------------
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="Run one workload of the SEER end-to-end benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="smoke: tiny inputs for the benchmark's tests")
    return parser


def result_line(outcome: Outcome, declared: Sequence[Dict[str, Any]],
                absent_is_zero: bool = False) -> Dict[str, Any]:
    """The result line: every declared metric, with its unit.

    With *absent_is_zero* (per-layer metrics) a metric the workload did
    not produce reads 0: the workload never entered that layer.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for entry in declared:
        name = entry["name"]
        if name not in outcome.metrics and not absent_is_zero:
            raise RuntimeError(f"workload did not measure {name!r}")
        value = outcome.metrics.get(name, 0)
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name!r} is not finite: {value!r}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    spec = load_spec()
    module = importlib.import_module(WORKLOADS[args.workload])
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    context = RunContext(args.workload, args.seed, args.seconds, args.scale,
                         workdir)
    outcome = Outcome()
    try:
        if args.trace:
            module.trace(context, outcome)
        else:
            module.measure(context, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass   # another run is still using it
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = result_line(outcome, declared, absent_is_zero=bool(args.trace))
    for text in outcome.report:
        print(text)
    print(json.dumps(line), flush=True)
    return 0
