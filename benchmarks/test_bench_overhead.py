"""Section 5.3: the cost of running SEER.

The paper reports ~35 us per traced system call on a 133 MHz Pentium,
clustering taking ~2 minutes of CPU for ~20,000 files, and ~1 KB of
memory per tracked file.  These benchmarks measure our equivalents:
per-record observer+correlator cost, clustering time, and hoard-build
time.  Absolute numbers differ (different hardware, different
language); the relevant shape is that per-record cost is tiny while
clustering is the expensive, rare operation.
"""

import pytest

from benchmarks.conftest import get_trace
from repro.core import Seer
from repro.simulation import SIM_PARAMETERS, simulation_control


def make_seer(trace):
    return Seer(kernel=trace.kernel, parameters=SIM_PARAMETERS,
                control=simulation_control(), attach=False)


def test_observer_per_record_cost(benchmark):
    """The analogue of the paper's 35 us/traced call."""
    trace = get_trace("F")
    records = trace.records[:20_000]

    def process():
        seer = make_seer(trace)
        for record in records:
            seer.observer.handle_record(record)
        return seer

    seer = benchmark.pedantic(process, rounds=3, iterations=1)
    assert seer.correlator.references_processed > 1000


def test_clustering_cost(benchmark):
    """The rare, expensive operation (paper: ~2 CPU minutes).

    Every round times a cold build: a fresh SEER, fed the trace in the
    untimed setup, so no round reuses the pair counts of an earlier
    build on the same correlator.
    """
    trace = get_trace("F")

    def fed_seer():
        seer = make_seer(trace)
        for record in trace.records:
            seer.observer.handle_record(record)
        return (seer,), {}

    def build(seer):
        clusters = seer.build_clusters()
        assert seer.metrics.counter("cluster.counts_reused") == 0
        return clusters

    clusters = benchmark.pedantic(build, setup=fed_seer, rounds=3,
                                  iterations=1)
    assert len(clusters) > 3


def test_hoard_build_cost(benchmark):
    trace = get_trace("F")
    seer = make_seer(trace)
    for record in trace.records:
        seer.observer.handle_record(record)
    clusters = seer.build_clusters()
    sizes = seer.size_function()

    selection = benchmark.pedantic(
        lambda: seer.build_hoard(2_000_000, sizes=sizes, clusters=clusters),
        rounds=5, iterations=1)
    assert selection.files


def test_memory_per_tracked_file(benchmark):
    """The paper: ~1 KB of (unoptimized) memory per tracked file."""
    import sys

    trace = get_trace("F")
    seer = make_seer(trace)

    def process():
        for record in trace.records:
            seer.observer.handle_record(record)
        return seer

    benchmark.pedantic(process, rounds=1, iterations=1)
    files = len(seer.correlator.known_files())
    assert files > 100
    # Rough accounting: every neighbor-table entry plus stream state.
    entries = sum(len(seer.correlator.store.table(f))
                  for f in seer.correlator.store.files())
    assert entries / max(files, 1) <= SIM_PARAMETERS.max_neighbors
