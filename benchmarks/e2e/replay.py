"""``figure2`` and ``refill``: miss-free replays run serially in-process.

Both replay the repository's reference traces (trace seed 1, the
traces behind ``benchmarks/output/figure2.txt``) through
:func:`repro.simulation.missfree.simulate_miss_free`.  The seed picks
the file-size draw for files whose real size is unknown -- the paper's
own method for Figure 2 (section 5.1.2: fixed traces, several size
seeds) -- with seed 1 drawing size seed 0, the committed figure.  The
work per run is therefore the same at every seed, and the spread
between seeds measures the machine rather than the input.

* ``figure2`` -- machines A-I x {daily, weekly}, plus B/F/G with
  investigators, 28 days: the headline study.  The observer and the
  correlator do most of its work.
* ``refill`` -- periodic automated refill (paper section 2): 2-hour
  windows on machines D, F, G and I, 14 days.  With ~170 windows per
  machine, clustering and hoard filling take about half of its time.

A run replays the grid while ``--seconds`` last, and at least once: a
28-day figure2 grid takes 16-25 s, so figure2 replays it once, and
refill (about 4 s) several times.  Everything is timed in reference
seconds (see ``speed.py``), from probes a timer takes every 0.1 s.
``wall_s`` is the median replay of the grid and ``latency_ms`` the
mean hoard fill at a window boundary -- from the start of SEER's
clustering to the end of its first ranked fill -- over every window of
every replay.  The fill latency is a mean, not a median, because fill
times span three orders of magnitude across machines and the median
falls on a steep stretch of that mixture.  Two wrappers time the fills
(one call each per window), a cost far below the run-to-run noise;
nothing per record is touched in the untraced run.

Repeats of the grid must be identical.  A figure2 run, which has one,
replays one more cell -- the seed picks which -- and compares it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.e2e import paper
from benchmarks.e2e.harness import (REFERENCE_TRACE_SEED, ROOT, Outcome,
                                    RunContext, peak_rss_mb, repeat_for,
                                    timed_setup, trace_report, traced_pass)
from benchmarks.e2e.speed import Interval, SpeedLog
from benchmarks.e2e.stats import median
from benchmarks.e2e.tracer import Instrumentation, Tracer
from repro.analysis import figures
from repro.simulation import missfree
from repro.simulation.serde import canonical_bytes, comparable_data
from repro.workload import generate_machine_trace, machine_profile

HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY

GOLDEN_FIGURE2 = ROOT / "benchmarks" / "output" / "figure2.txt"

#: Input generations timed for ``setup_s`` (2.5 s each for figure2).
SETUPS = 2

#: (machine, window seconds, with investigators)
Cell = Tuple[str, float, bool]


@dataclass(frozen=True)
class Grid:
    machines: str
    windows: Tuple[float, ...]
    days: float
    investigators: bool

    def cells(self) -> List[Cell]:
        """Plain cells for every machine, then investigator cells, in
        the order the Figure 2 benchmark renders them."""
        cells = [(machine, window, False) for machine in self.machines
                 for window in self.windows]
        if self.investigators:
            cells += [(machine, window, True) for machine in self.machines
                      if machine_profile(machine).uses_investigators
                      for window in self.windows]
        return cells


GRIDS = {
    ("figure2", "full"): Grid("ABCDEFGHI", (DAY, WEEK), 28.0, True),
    ("figure2", "smoke"): Grid("CG", (DAY, WEEK), 2.0, True),
    ("refill", "full"): Grid("DFGI", (2 * HOUR,), 14.0, False),
    ("refill", "smoke"): Grid("C", (2 * HOUR,), 2.0, False),
}

Traces = Dict[str, Any]


def size_seed(seed: int) -> int:
    return seed - 1


def generate(grid: Grid) -> Traces:
    return {machine: generate_machine_trace(
        machine_profile(machine), seed=REFERENCE_TRACE_SEED, days=grid.days)
        for machine in grid.machines}


def replay_cell(traces: Traces, cell: Cell,
                seed: int) -> missfree.MissFreeResult:
    machine, window, investigators = cell
    # Looked up through the module at call time, so a traced pass sees
    # its wrapper.
    return missfree.simulate_miss_free(traces[machine], window,
                                       use_investigators=investigators,
                                       seed=size_seed(seed))


def replay(grid: Grid, traces: Traces,
           seed: int) -> List[missfree.MissFreeResult]:
    return [replay_cell(traces, cell, seed) for cell in grid.cells()]


def render(results: List[missfree.MissFreeResult]) -> str:
    return figures.render_figure2(results, show_ci=False) + "\n"


def fingerprint(results: List[missfree.MissFreeResult]) -> bytes:
    """Canonical bytes of every cell, timings stripped."""
    return b"\n".join(canonical_bytes(comparable_data(result))
                      for result in results)


#: Spans the untraced replay keeps to time window fills.
FILL_START, FILL_END = "fill.cluster", "fill.rank"


def fill_timer() -> Tuple[Instrumentation, Tracer]:
    """Two wrappers, one call each per window: SEER's clustering
    (``Seer.build_clusters``) and its ranked fill
    (``HoardManager.miss_free_size``)."""
    tracer = Tracer(individual={FILL_START, FILL_END})
    instrumentation = Instrumentation(tracer)
    instrumentation.wrap("repro.core.seer:Seer.build_clusters", FILL_START)
    instrumentation.wrap("repro.core.hoard:HoardManager.miss_free_size",
                         FILL_END)
    return instrumentation, tracer


def fill_intervals(tracer: Tracer) -> List[Interval]:
    """Per window: from the start of clustering to the end of the first
    ranked fill after it."""
    intervals: List[Interval] = []
    started: Optional[float] = None
    for span in sorted(tracer.spans, key=lambda span: span.start):
        if span.name == FILL_START:
            started = span.start
        elif started is not None:
            intervals.append((started, span.end))
            started = None
    return intervals


# ----------------------------------------------------------------------
# correctness oracles
# ----------------------------------------------------------------------
def check_figure2(context: RunContext, outcome: Outcome,
                  results: List[missfree.MissFreeResult], text: str) -> None:
    """The golden figure at seed 1, the paper's invariants at any seed."""
    if context.seed == 1 and not context.smoke:
        golden = GOLDEN_FIGURE2.read_text(encoding="utf-8")
        outcome.check(text == golden,
                      f"figure2 at seed 1 differs from {GOLDEN_FIGURE2.name}")
    if context.smoke:
        return   # two-day traces are too short for the paper's shape
    plain = {(r.machine, r.window_seconds): r for r in results
             if not r.use_investigators}
    for result in results:
        label = (f"{result.machine}{'*' if result.use_investigators else ''}"
                 f" {result.window_seconds / DAY:g}d")
        outcome.check(bool(result.windows), f"{label}: no active windows")
        outcome.check(result.mean_seer <= result.mean_lru * 1.05,
                      f"{label}: SEER needs more space than LRU")
        outcome.check(result.mean_seer <= 3.0 * result.mean_working_set,
                      f"{label}: SEER over 3x the working set")
        if result.use_investigators:
            base = plain[(result.machine, result.window_seconds)]
            outcome.check(
                result.mean_seer <= 2.0 * base.mean_seer
                and base.mean_seer <= 2.0 * max(result.mean_seer, 1),
                f"{label}: investigators changed the hoard size 2x")
    ratios = [r.lru_to_seer_ratio for r in results if r.windows]
    outcome.check(min(ratios) >= 1.0 and max(ratios) > 5.0,
                  "LRU/SEER ratios lost the paper's shape")


def check_repeats(outcome: Outcome, prints: List[bytes], what: str) -> None:
    for index, other in enumerate(prints[1:], start=2):
        outcome.check(other == prints[0],
                      f"{what}: repeat {index} differs from repeat 1")


# ----------------------------------------------------------------------
# the workload interface
# ----------------------------------------------------------------------
def _grid(context: RunContext) -> Grid:
    return GRIDS[(context.workload, context.scale)]


def _run_once(grid: Grid, traces: Traces,
              seed: int) -> Tuple[List[missfree.MissFreeResult], str]:
    results = replay(grid, traces, seed)
    return results, render(results)


def measure(context: RunContext, outcome: Outcome) -> None:
    grid = _grid(context)
    speed = SpeedLog()
    first: List[Tuple[List[missfree.MissFreeResult], str]] = []
    instrumentation, fill_tracer = fill_timer()

    def once() -> Tuple[bytes, Interval, List[Interval]]:
        fill_tracer.spans.clear()
        start = time.perf_counter()
        results, text = _run_once(grid, traces, context.seed)
        interval = (start, time.perf_counter())
        # Only the first repeat's results are kept, so peak memory does
        # not grow with the number of repeats that fit in the run.
        if not first:
            first.append((results, text))
        return fingerprint(results), interval, fill_intervals(fill_tracer)

    with speed.sampling():
        traces, setups = timed_setup(lambda: generate(grid), SETUPS)
        with instrumentation:
            runs = [run for _, run in repeat_for(context.seconds, once)]
    results, text = first[0]
    outcome.check(len(results) == len(grid.cells()),
                  "replay returned a result per cell")
    if context.workload == "figure2":
        check_figure2(context, outcome, results, text)
    prints = [run[0] for run in runs]
    if len(runs) == 1:
        index = context.seed % len(results)
        again = replay_cell(traces, grid.cells()[index], context.seed)
        prints = [fingerprint(results[index:index + 1]), fingerprint([again])]
    check_repeats(outcome, prints, context.workload)

    records = sum(len(traces[machine].records)
                  for machine, _, _ in grid.cells())
    walls = speed.seconds([run[1] for run in runs])
    fills = speed.seconds([fill for run in runs for fill in run[2]])
    wall = median(walls)
    outcome.metrics.update({
        "setup_s": median(speed.seconds(setups)),
        "wall_s": wall,
        "latency_ms": 1e3 * statistics.mean(fills),
        "peak_rss_mb": peak_rss_mb(),
    })
    outcome.report.append(
        f"{context.workload}: {len(grid.cells())} cells x {len(runs)} "
        f"repeats, {records} records/repeat, {records / wall:,.0f} "
        f"records per reference second; repeats took "
        f"{', '.join(f'{seconds:.2f}' for seconds in walls)} reference s "
        f"(host at {speed.slowdown():.2f}x the reference time); "
        f"{len(fills)} window fills, median {1e3 * median(fills):.2f} ms")


def trace(context: RunContext, outcome: Outcome) -> None:
    grid = _grid(context)
    start = time.perf_counter()
    traces = generate(grid)
    generate_s = time.perf_counter() - start

    untraced_start = time.perf_counter()
    plain, _ = _run_once(grid, traces, context.seed)
    untraced_wall = time.perf_counter() - untraced_start
    (results, text), tracer, probe, wall = traced_pass(
        lambda: _run_once(grid, traces, context.seed))
    outcome.check(fingerprint(results) == fingerprint(plain),
                  "traced replay differs from the untraced one")
    if context.workload == "figure2":
        check_figure2(context, outcome, results, text)

    extras: Dict[str, float] = {
        "workload.generate_s": generate_s,
        "missfree.windows": sum(len(r.windows) for r in results),
    }
    for name in ("recluster.incremental_builds", "recluster.full_builds"):
        extras[name] = sum((r.metrics or {}).get(name, 0.0) for r in results)
    extras.update(paper.probe(context))
    trace_report(outcome, tracer, probe, wall, untraced_wall, extras)
    outcome.report.append(paper.table(outcome.metrics))
