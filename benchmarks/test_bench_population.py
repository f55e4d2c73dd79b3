"""Fleet-scale population sweep: sampler -> runner -> report.

Runs an N-machine synthetic population end-to-end -- per-machine
profile sampling, trace generation, the reduced ``population`` grid
cells on the parallel runner with a sqlite checkpoint store, streaming
aggregation and the confidence-banded report -- and records machine
throughput as ``BENCH_population.json`` for the trajectory gate.

The structural claim pinned here is the memory contract: with
``consume=`` the runner materializes nothing (the join returns an
empty list) and the aggregate holds exactly one compact scorecard per
machine, no window-level data.

``REPRO_BENCH_SMOKE=1`` shrinks N for CI smoke runs.
"""

import os
import shutil
import tempfile
import time

from benchmarks.perf_record import write_record
from repro.analysis.population import (
    PopulationAggregate,
    render_population_report,
)
from repro.simulation.runner import RunStats, population_grid, run_shards

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

MACHINES = 8 if SMOKE else 64
SEED = 7
DAYS = 2.0 if SMOKE else 3.0
JOBS = 2


def test_population_sweep_throughput(benchmark, output_dir):
    checkpoint_dir = tempfile.mkdtemp(prefix="bench-population-")
    try:
        grid = population_grid(MACHINES, SEED, days=DAYS)
        aggregate = PopulationAggregate(population_seed=SEED, days=DAYS)
        stats = RunStats()

        def sweep():
            return run_shards(grid, jobs=JOBS,
                              checkpoint_dir=checkpoint_dir,
                              stats=stats, consume=aggregate.consume)

        start = time.perf_counter()
        returned = benchmark.pedantic(sweep, rounds=1, iterations=1)
        elapsed = time.perf_counter() - start

        # The memory contract: nothing materializes in the join.
        assert returned == []
        assert aggregate.machines == MACHINES
        assert all(cell.metrics is None for cell in aggregate.cells)

        report = render_population_report(aggregate, resamples=200)
        assert f"Population report: {MACHINES} machines" in report
        with open(os.path.join(output_dir, "population_report.txt"),
                  "w", encoding="utf-8") as stream:
            stream.write(report + "\n")

        record = write_record(
            output_dir, "population", elapsed, MACHINES,
            extra={"jobs": JOBS, "days": DAYS,
                   "pool_utilization": round(stats.pool_utilization, 3)})
        print(f"population: {MACHINES} machines in {elapsed:.1f}s "
              f"({record['throughput_per_second']:.2f} machines/s, "
              f"jobs={JOBS})")
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
