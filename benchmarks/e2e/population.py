"""``population``: a fleet sweep through the runner, store and analysis.

A fixed synthetic fleet (population seed 1; 16 machines, 3 days each)
runs as ``population`` grid cells on the runner's 2-process pool,
checkpointing into a sqlite store and streaming into a
:class:`~repro.analysis.population.PopulationAggregate`.  As with the
replay workloads, the seed draws file sizes (every cell's
``size_seed``), so the amount of work is the same at every seed.

Each repeat is one *fresh* sweep into an empty store (``wall_s``, the
median), followed by resume passes over the complete store, each of
which restores every cell and renders the report again -- the report a
user asks for after the fleet has run (``latency_ms``, the median).
A store change that speeds writes by slowing reads therefore shows in
one of the two.  Times are reference seconds (see ``speed.py``); the
pool workers probe the host's speed during a sweep (see
:func:`probed_shard`).

Pool workers do not send span buffers back to the parent, so the
traced pass runs ``jobs=1``; pool figures come from an untraced
``jobs=2`` sweep in the same run, and the tracing overhead is taken
against an untraced ``jobs=1`` sweep.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

from benchmarks.e2e import paper
from benchmarks.e2e.harness import (Outcome, RunContext, peak_rss_mb,
                                    repeat_for, timed_setup, trace_report,
                                    traced_pass)
from benchmarks.e2e.speed import Interval, SpeedLog
from benchmarks.e2e.stats import median
from repro.analysis import population as analysis
from repro.observability import Metrics
from repro.simulation import runner
from repro.simulation.runner import RunStats, ShardSpec

POPULATION_SEED = 1
#: Machines and days.  A 16-machine sweep takes about 1.4 reference
#: seconds, so a run holds enough sweeps for their median to be steady.
FLEETS = {"full": (16, 3.0), "smoke": (3, 1.0)}
JOBS = 2
#: Resume passes after each fresh sweep.
RESUMES = 5
#: Grid samplings timed for ``setup_s`` before every fresh sweep; one
#: takes about a millisecond, so many samples spread over the run keep
#: a momentary stall from setting the median.
SETUPS = 5


def grid(context: RunContext) -> List[ShardSpec]:
    machines, days = FLEETS[context.scale]
    return [dataclasses.replace(spec, size_seed=context.seed)
            for spec in runner.population_grid(machines, POPULATION_SEED,
                                               days)]


Sweep = Tuple[RunStats, Metrics, analysis.PopulationAggregate, str]


def sweep(shards: List[ShardSpec], store_dir: str, jobs: int,
          resume: bool = False) -> Sweep:
    """One run_shards pass: its stats, counters, aggregate and report."""
    days = shards[0].days
    aggregate = analysis.PopulationAggregate(POPULATION_SEED, days)
    stats = RunStats()
    metrics = Metrics()
    # Module attribute lookups at call time, so a traced pass sees the
    # wrappers.
    runner.run_shards(shards, jobs=jobs, checkpoint_dir=store_dir,
                      store="sqlite", resume=resume, stats=stats,
                      metrics=metrics, consume=aggregate.consume)
    return (stats, metrics, aggregate,
            analysis.render_population_report(aggregate))


# ----------------------------------------------------------------------
# the host's speed inside the pool workers
# ----------------------------------------------------------------------
RUN_SHARD = runner._run_shard


def probed_shard(directory: str, spec: ShardSpec) -> Any:
    """``runner._run_shard`` with the host's speed probed while it runs.

    Appends the shard's ``perf_counter`` interval and its reference
    seconds to a file of this process in *directory*.
    """
    speed = SpeedLog()
    with speed.sampling():
        start = time.perf_counter()
        result = RUN_SHARD(spec)
        end = time.perf_counter()
    path = os.path.join(directory, f"{os.getpid()}.jsonl")
    with open(path, "a", encoding="utf-8") as stream:
        stream.write(json.dumps([start, end,
                                 speed.reference_seconds(start, end)]) + "\n")
    return result


@contextmanager
def probed_workers(directory: str) -> Iterator[None]:
    """Run every shard through :func:`probed_shard`.

    ``run_shards`` looks ``_run_shard`` up when it starts its pool, and
    pickles it by name for the workers, so the partial goes to them.
    """
    runner._run_shard = functools.partial(probed_shard, directory)
    try:
        yield
    finally:
        runner._run_shard = RUN_SHARD


def workers_reference_seconds(directory: str, start: float,
                              end: float) -> float:
    """A sweep's interval scaled by how fast its workers ran: times the
    shards' reference seconds over their wall seconds."""
    wall = reference = 0.0
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as stream:
            for line in stream:
                shard_start, shard_end, shard_reference = json.loads(line)
                wall += shard_end - shard_start
                reference += shard_reference
    if not wall:
        raise RuntimeError("the sweep's workers left no speed probes")
    return (end - start) * reference / wall


# ----------------------------------------------------------------------
# the workload interface
# ----------------------------------------------------------------------
@dataclass
class Passes:
    """One run's timed passes."""

    setups: List[Interval] = field(default_factory=list)
    sweeps: List[float] = field(default_factory=list)   # reference s
    resumes: List[Interval] = field(default_factory=list)


def _repeat(context: RunContext, outcome: Outcome, speed: SpeedLog,
            passes: Passes) -> None:
    """Sample the fleet, sweep it fresh, then the resume passes.

    The parent probes the host while it samples and resumes, alone on
    the machine; during the sweep the pool workers probe it, since a
    probe in the parent would compete with them for the two cores and
    time the pool rather than the host.
    """
    with speed.sampling():
        shards, intervals = timed_setup(lambda: grid(context), SETUPS)
    passes.setups.extend(intervals)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=context.workdir)
    probes_dir = tempfile.mkdtemp(prefix="speed-", dir=context.workdir)
    with probed_workers(probes_dir):
        start = time.perf_counter()
        stats, _, _, fresh = sweep(shards, store_dir, JOBS)
        end = time.perf_counter()
    passes.sweeps.append(workers_reference_seconds(probes_dir, start, end))
    outcome.check(stats.shards_run == len(shards),
                  f"fresh sweep ran {stats.shards_run} of {len(shards)}")
    with speed.sampling():
        for _ in range(RESUMES):
            start = time.perf_counter()
            stats, _, _, report = sweep(shards, store_dir, JOBS, resume=True)
            passes.resumes.append((start, time.perf_counter()))
            outcome.check(stats.shards_run == 0,
                          f"resume recomputed {stats.shards_run} shards")
            outcome.check(report == fresh,
                          "resumed report differs from fresh")


def measure(context: RunContext, outcome: Outcome) -> None:
    # The first sweep in a process runs about a second slow; it is a
    # warm-up, not a sample.
    sweep(grid(context), tempfile.mkdtemp(dir=context.workdir), JOBS)
    speed = SpeedLog()
    passes = Passes()
    repeat_for(context.seconds,
               lambda: _repeat(context, outcome, speed, passes))
    sweeps = passes.sweeps
    outcome.metrics.update({
        "setup_s": median(speed.seconds(passes.setups)),
        "wall_s": median(sweeps),
        "latency_ms": 1e3 * median(speed.seconds(passes.resumes)),
        # The parent holds the store and the aggregate, the workers the
        # traces: report whichever process peaked higher.
        "peak_rss_mb": max(peak_rss_mb(), peak_rss_mb(children=True)),
    })
    outcome.report.append(
        f"population: {FLEETS[context.scale][0]} machines x {len(sweeps)} "
        f"fresh sweeps (jobs={JOBS}), {len(passes.resumes)} resumed "
        f"reports; sweeps took "
        f"{', '.join(f'{seconds:.2f}' for seconds in sweeps)} reference s "
        f"(host at {speed.slowdown():.2f}x the reference time)")


def trace(context: RunContext, outcome: Outcome) -> None:
    start = time.perf_counter()
    shards = grid(context)
    generate_s = time.perf_counter() - start

    def fresh_dir() -> str:
        return tempfile.mkdtemp(prefix="store-", dir=context.workdir)

    pool_dir = fresh_dir()
    pool, _, _, report = sweep(shards, pool_dir, JOBS)
    start = time.perf_counter()
    restored, _, _, resumed = sweep(shards, pool_dir, JOBS, resume=True)
    resume_s = time.perf_counter() - start
    outcome.check(restored.shards_run == 0 and resumed == report,
                  "resume pass recomputed shards or changed the report")

    start = time.perf_counter()
    serial_report = sweep(shards, fresh_dir(), 1)[3]
    untraced_wall = time.perf_counter() - start
    (stats, metrics, aggregate, traced_report), tracer, probe, wall = \
        traced_pass(lambda: sweep(shards, fresh_dir(), 1))
    outcome.check(serial_report == report and traced_report == report,
                  "jobs=1 and traced sweeps differ from the jobs=2 sweep")

    extras: Dict[str, float] = {
        "workload.generate_s": generate_s,
        "runner.shards": pool.shards_run,
        "runner.shard_busy_s": pool.busy_seconds,
        "runner.pool_utilization": pool.pool_utilization,
        "runner.shards_restored": restored.shards_from_checkpoint,
        "runner.resume_s": resume_s,
        "store.corrupt_discarded": stats.corrupt_discarded,
        "store.bytes_on_disk": metrics.counter("runner.store.bytes_on_disk"),
        "missfree.windows": sum(cell.windows for cell in aggregate.cells),
    }
    for name in ("recluster.incremental_builds", "recluster.full_builds"):
        extras[name] = metrics.counter(name)
    extras.update(paper.probe(context))
    trace_report(outcome, tracer, probe, wall, untraced_wall, extras)
    outcome.report.append(paper.table(outcome.metrics))

