"""The shared replay against the per-pass replays it replaced.

``simulate_miss_free``, ``simulate_live_usage`` and
``simulate_population_cell`` run one record loop: a population cell's
miss-free scorer rides its live replay's Seer.  ``tests/oracle/replay.py``
keeps the loops they replaced, one Seer and one pass per measurement.
Every cell here must equal its oracle byte for byte, in
``canonical_bytes(comparable_data(...))``.
"""

import dataclasses

import pytest

from repro.simulation.live import simulate_live_usage
from repro.simulation.missfree import simulate_miss_free
from repro.simulation.population import simulate_population_cell
from repro.simulation.serde import canonical_bytes, comparable_data
from repro.workload import (
    MACHINES,
    generate_machine_trace,
    machine_profile,
    machine_seed,
    sample_profile,
)
from tests.oracle import replay as oracle

DAY = 86400.0
WEEK = 7 * DAY
#: Long enough for one scored weekly window.
DAYS = 9.0

#: (window, investigators, include_spy, include_coda): daily and weekly,
#: with and without investigators, each baseline on in two of four.
MISS_FREE_CELLS = [
    (DAY, False, True, True),
    (DAY, True, False, False),
    (WEEK, False, False, True),
    (WEEK, True, True, False),
]

FAULTS = [None, "none", "lossy", "flaky", "hostile"]

#: Seven-day fleet cells under ``flaky``, as ``population_grid`` makes
#: them: (population seed, machine index, fault seed).  Each changes if
#: the scorer also hoards the live replay's recorded misses
#: (``Seer.always_hoard_paths``); the last two also change if the live
#: miss check counts every file LRU is fed (stats included) as a miss.
FLAKY_WEEK_CELLS = [(7, 0, 1), (7, 3, 1), (1, 7, 2)]


def assert_same_bytes(shipped, reference):
    assert canonical_bytes(comparable_data(shipped)) == \
        canonical_bytes(comparable_data(reference))


def fleet_trace(population_seed, index, days):
    profile = sample_profile(population_seed, index)
    return profile, generate_machine_trace(
        profile, seed=machine_seed(population_seed, index), days=days)


@pytest.fixture(scope="module")
def traces():
    return {name: generate_machine_trace(machine_profile(name), seed=1,
                                         days=DAYS)
            for name in sorted(MACHINES)}


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_miss_free_cells_match(traces, machine):
    trace = traces[machine]
    for window, investigators, spy, coda in MISS_FREE_CELLS:
        arguments = dict(use_investigators=investigators, seed=3,
                         include_spy=spy, include_coda=coda)
        shipped = simulate_miss_free(trace, window, **arguments)
        assert shipped.windows or window == WEEK   # a light second week
        assert_same_bytes(shipped,
                          oracle.simulate_miss_free(trace, window,
                                                    **arguments))


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_live_cells_match(traces, machine):
    trace = traces[machine]
    for fault_profile in (None, "flaky"):
        arguments = dict(use_investigators=machine in "BFG", size_seed=2,
                         fault_profile=fault_profile, fault_seed=1)
        assert_same_bytes(simulate_live_usage(trace, **arguments),
                          oracle.simulate_live_usage(trace, **arguments))


@pytest.mark.parametrize("fault_profile", FAULTS)
def test_population_cells_match_under_every_fault_profile(fault_profile):
    for index in range(3):
        profile, trace = fleet_trace(7, index, 3.0)
        arguments = dict(use_investigators=profile.uses_investigators,
                         size_seed=index, fault_profile=fault_profile,
                         fault_seed=2)
        for window in (DAY, WEEK):
            assert_same_bytes(
                simulate_population_cell(trace, window, **arguments),
                oracle.simulate_population_cell(trace, window, **arguments))


@pytest.mark.parametrize("population_seed, index, fault_seed",
                         FLAKY_WEEK_CELLS)
def test_seven_day_flaky_cells_match(population_seed, index, fault_seed):
    profile, trace = fleet_trace(population_seed, index, 7.0)
    arguments = dict(use_investigators=profile.uses_investigators,
                     fault_profile="flaky", fault_seed=fault_seed)
    shipped = simulate_population_cell(trace, DAY, **arguments)
    assert shipped.automatic_detections > 0
    assert_same_bytes(shipped,
                      oracle.simulate_population_cell(trace, DAY,
                                                      **arguments))


def test_machine_with_no_disconnections():
    index = next(i for i in range(1000)
                 if sample_profile(7, i).n_disconnections == 0)
    profile, trace = fleet_trace(7, index, 3.0)
    # Its activity fills a few hours of one connected period, so the
    # scorer's windows are two hours long to fall inside it.
    window = 2 * 3600.0
    arguments = dict(use_investigators=profile.uses_investigators)
    shipped = simulate_population_cell(trace, window, **arguments)
    assert shipped.disconnections == 0 and shipped.windows > 0
    assert_same_bytes(shipped, oracle.simulate_population_cell(
        trace, window, **arguments))


def test_empty_trace(traces):
    empty = dataclasses.replace(traces["E"], records=[])
    assert_same_bytes(simulate_miss_free(empty, DAY),
                      oracle.simulate_miss_free(empty, DAY))
    assert_same_bytes(simulate_live_usage(empty),
                      oracle.simulate_live_usage(empty))
    shipped = simulate_population_cell(empty, DAY)
    assert shipped.windows == 0
    assert_same_bytes(shipped, oracle.simulate_population_cell(empty, DAY))


def test_windows_with_no_records(traces):
    trace = traces["C"]
    start = trace.records[0].time
    gap = dataclasses.replace(trace, records=[
        record for record in trace.records
        if not start + 1.5 * DAY <= record.time < start + 4.5 * DAY])
    # Windows 2 and 3 hold no record, so the boundaries ending windows
    # 1-3 fall at one record index; only window 4 is scored there.
    shipped = simulate_miss_free(gap, DAY, include_spy=True,
                                 include_coda=True)
    indexes = {window.index for window in shipped.windows}
    assert 3 in indexes and indexes.isdisjoint({1, 2})
    assert_same_bytes(shipped,
                      oracle.simulate_miss_free(gap, DAY, include_spy=True,
                                                include_coda=True))
    assert_same_bytes(simulate_population_cell(gap, DAY),
                      oracle.simulate_population_cell(gap, DAY))


def test_record_on_a_window_boundary(traces):
    trace = traces["F"]
    start = trace.records[0].time
    window = next(record.time - start
                  for record in trace.records[len(trace.records) // 3:]
                  if start + (record.time - start) == record.time)
    assert any(record.time == start + window for record in trace.records)
    assert_same_bytes(simulate_miss_free(trace, window, include_spy=True),
                      oracle.simulate_miss_free(trace, window,
                                                include_spy=True))
    assert_same_bytes(simulate_population_cell(trace, window),
                      oracle.simulate_population_cell(trace, window))


def test_cell_ingests_its_trace_once():
    profile, trace = fleet_trace(7, 1, 3.0)
    cell = simulate_population_cell(
        trace, DAY, use_investigators=profile.uses_investigators,
        fault_profile="flaky", fault_seed=1)
    live = simulate_live_usage(
        trace, use_investigators=profile.uses_investigators,
        fault_profile="flaky", fault_seed=1)
    assert cell.metrics["correlator.ingest.count"] == \
        live.metrics["correlator.ingest.count"] > 0
    assert cell.metrics["faults.injected_total"] == \
        live.metrics["faults.injected_total"] > 0
