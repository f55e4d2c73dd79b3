"""Population analysis: percentiles, bootstrap bands, report rendering.

These tests run on hand-built scorecards so they stay in
milliseconds; the end-to-end pipeline (sampler -> runner -> report) is
pinned byte-for-byte by ``tests/golden/test_golden_population.py``.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import population
from repro.analysis.population import (
    MB,
    PopulationAggregate,
    aggregate_from_data,
    aggregate_to_data,
    band_seed,
    bootstrap_band,
    percentile,
    render_population_report,
)
from repro.simulation.missfree import MissFreeResult
from repro.simulation.population import PopulationCellResult
from repro.simulation.runner import ShardOutcome, ShardSpec
from tests.oracle import bootstrap as oracle


def make_cell(index: int, activity: float = 0.3,
              n_disconnections: int = 40,
              failed: int = 0) -> PopulationCellResult:
    return PopulationCellResult(
        machine=f"pop7-{index:06d}",
        activity=activity,
        n_disconnections=n_disconnections,
        uses_investigators=index % 3 == 0,
        hoard_budget=500_000,
        window_seconds=86400.0,
        windows=3,
        referenced_files=120 + index,
        mean_working_set=(1.0 + 0.1 * index) * MB,
        mean_seer=(1.2 + 0.1 * index) * MB,
        mean_lru=(2.5 + 0.2 * index) * MB,
        mean_spy=(1.3 + 0.1 * index) * MB,
        mean_coda=(2.4 + 0.2 * index) * MB,
        disconnections=4,
        failed_disconnections=failed,
        automatic_detections=failed,
        median_first_miss_hours=0.5 if failed else 0.0,
        metrics={"correlator.ingest.count": 10.0} if index == 0 else None,
    )


def make_aggregate(machines: int = 12) -> PopulationAggregate:
    aggregate = PopulationAggregate(population_seed=7, days=3.0)
    for index in range(machines):
        spec = ShardSpec("population", f"pop7-{index:06d}", index, 3.0,
                         window_seconds=86400.0)
        aggregate.consume(ShardOutcome(spec=spec,
                                       result=make_cell(index,
                                                        failed=index % 4)))
    return aggregate


class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 50.0) == 0.0
        assert percentile([3.0], 95.0) == 3.0

    def test_interpolates(self):
        values = [0.0, 10.0]
        assert percentile(values, 0.0) == 0.0
        assert percentile(values, 50.0) == 5.0
        assert percentile(values, 100.0) == 10.0

    def test_order_independent(self):
        assert percentile([5.0, 1.0, 3.0], 50.0) == 3.0


class TestBootstrapBand:
    def test_deterministic_for_a_seed(self):
        values = [float(v) for v in range(20)]
        assert bootstrap_band(values, 7) == bootstrap_band(values, 7)
        assert bootstrap_band(values, 7) != bootstrap_band(values, 8)

    def test_band_brackets_the_mean(self):
        values = [float(v) for v in range(20)]
        low, high = bootstrap_band(values, 3)
        mean = sum(values) / len(values)
        assert low <= mean <= high
        assert low < high

    def test_degenerate_inputs(self):
        assert bootstrap_band([], 1) == (0.0, 0.0)
        assert bootstrap_band([4.2], 1) == (4.2, 4.2)

    def test_band_seed_is_crc32_stable(self):
        # Pinned: a drifting bootstrap seed would silently change
        # every committed report band.
        assert band_seed(0, "SEER") == 2823377612

    @pytest.mark.parametrize("values", [[], [4.2], [1.0, 2.0, 3.0]])
    @pytest.mark.parametrize("resamples", [0, -5])
    def test_rejects_resamples_below_one(self, values, resamples):
        # A band of no resamples once came back as (0.0, 0.0), which
        # does not even contain the mean.
        with pytest.raises(ValueError, match=f"got {resamples}"):
            bootstrap_band(values, 1, resamples=resamples)

    @pytest.mark.parametrize("confidence",
                             [0.0, 1.0, 1.5, -0.25, math.nan])
    def test_rejects_confidence_outside_the_unit_interval(self,
                                                          confidence):
        with pytest.raises(ValueError, match="confidence"):
            bootstrap_band([1.0, 2.0, 3.0], 1, confidence=confidence)

    def test_render_rejects_resamples_below_one(self):
        with pytest.raises(ValueError, match="resamples"):
            render_population_report(make_aggregate(3), resamples=0)


#: Non-negative finite floats (bounded so that 64 of them cannot sum to
#: infinity) mixed with small ints, as a report column may hold.
band_values = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=1e300),
              st.integers(min_value=0, max_value=1000)),
    max_size=64)


class TestBootstrapMatchesOracle:
    """The numpy resampler returns bit for bit the pure-Python loop's
    band (``tests/oracle/bootstrap.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(values=band_values,
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           resamples=st.integers(min_value=1, max_value=300),
           confidence=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
           block=st.one_of(st.none(), st.integers(min_value=1,
                                                  max_value=200)))
    @example(values=[1.5, 2.25], seed=0, resamples=1000, confidence=0.95,
             block=None)
    @example(values=[0.1, 7, 2.5], seed=3, resamples=999, confidence=0.9,
             block=None)
    @example(values=[float(v) * 0.37 for v in range(17)], seed=11,
             resamples=500, confidence=0.95, block=None)
    @example(values=[3.3] * 9, seed=5, resamples=40, confidence=0.5,
             block=None)
    @example(values=[0.0, 4.0, 0.0, 1e-300, 2], seed=8, resamples=60,
             confidence=0.99, block=None)
    @example(values=[1.0, 2.0, 4.0, 8.0], seed=2**40 + 3, resamples=50,
             confidence=0.95, block=None)
    @example(values=[1.0, 2.0, 4.0, 8.0], seed=-77, resamples=50,
             confidence=0.95, block=None)
    # Blocks of three resamples of three draws: ten resamples cross
    # three block boundaries, and the last block is short.
    @example(values=[0.5, 1.75, 3.0], seed=12, resamples=10,
             confidence=0.9, block=9)
    def test_band_equals_the_oracle(self, values, seed, resamples,
                                    confidence, block):
        expected = oracle.bootstrap_band(values, seed, resamples,
                                         confidence)
        patched = population.BLOCK_VALUES if block is None else block
        with mock.patch.object(population, "BLOCK_VALUES", patched):
            assert bootstrap_band(values, seed, resamples,
                                  confidence) == expected

    def test_one_generator_serves_many_bands(self):
        """A report reuses one generator for its six bands: each band
        starts from its own seed's state, whatever ran before it."""
        generator = population._generator()
        columns = [[float(v) for v in range(20)], [0.5, 9.0, 2.0],
                   [1.0] * 4 + [3.0] * 3]
        for seed, values in enumerate(columns * 2):
            assert population._band(values, seed, 200, 0.95, generator) \
                == oracle.bootstrap_band(values, seed, 200, 0.95)


class TestAggregate:
    def test_consume_strips_metrics(self):
        aggregate = make_aggregate(3)
        assert aggregate.machines == 3
        assert all(cell.metrics is None for cell in aggregate.cells)

    def test_consume_rejects_foreign_results(self):
        aggregate = PopulationAggregate(population_seed=7, days=3.0)
        spec = ShardSpec("missfree", "E", 1, 3.0, window_seconds=86400.0)
        result = MissFreeResult("E", 86400.0, False, 0)
        with pytest.raises(TypeError, match="population aggregate"):
            aggregate.consume(ShardOutcome(spec=spec, result=result))

    def test_persistence_round_trip(self):
        aggregate = make_aggregate(5)
        again = aggregate_from_data(aggregate_to_data(aggregate))
        assert again.population_seed == aggregate.population_seed
        assert again.days == aggregate.days
        assert again.cells == aggregate.cells


class TestRenderReport:
    def test_empty_population(self):
        empty = PopulationAggregate(population_seed=7, days=3.0)
        assert "no machines" in render_population_report(empty)

    def test_sections_present(self):
        report = render_population_report(make_aggregate(), resamples=50)
        assert "Population report: 12 machines (seed 7)" in report
        assert "95% bootstrap band" in report
        assert "percentiles (MB)" in report
        assert "Population curve" in report
        assert "by activity:" in report
        assert "by disconnection regime:" in report
        assert "Deployment effectiveness" in report
        for algorithm in ("SEER", "LRU", "SPY", "CODA", "working set"):
            assert algorithm in report

    def test_rendering_is_deterministic(self):
        aggregate = make_aggregate()
        assert render_population_report(aggregate, resamples=50) == \
            render_population_report(aggregate, resamples=50)

    def test_empty_strata_render_gracefully(self):
        aggregate = PopulationAggregate(population_seed=7, days=3.0)
        spec = ShardSpec("population", "pop7-000000", 0, 3.0,
                         window_seconds=86400.0)
        aggregate.consume(ShardOutcome(
            spec=spec, result=make_cell(0, activity=0.9,
                                        n_disconnections=0)))
        report = render_population_report(aggregate, resamples=50)
        assert "(no machines)" in report     # the empty strata
        assert "never (0)" in report
