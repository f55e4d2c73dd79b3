"""Whole-pipeline integration tests: generate -> observe -> hoard ->
simulate -> render."""

import io

import pytest

from repro.analysis import render_figure2, render_figure3, render_table3, render_table4
from repro.core import Seer
from repro.simulation import SIM_PARAMETERS, simulation_control
from repro.simulation.live import simulate_live_usage
from repro.simulation.missfree import simulate_miss_free
from repro.tracing import read_trace, summarize_trace, write_trace
from repro.workload import generate_machine_trace, machine_profile

DAY = 86400.0


@pytest.fixture(scope="module")
def trace():
    return generate_machine_trace(machine_profile("D"), seed=5, days=21)


class TestPipeline:
    def test_trace_roundtrip_preserves_simulation(self, trace):
        buffer = io.StringIO()
        write_trace(trace.records, buffer)
        buffer.seek(0)
        replayed = list(read_trace(buffer))
        assert len(replayed) == len(trace.records)
        assert summarize_trace(replayed).operations == \
            summarize_trace(trace.records).operations

    def test_live_seer_on_generated_kernel(self, trace):
        seer = Seer(kernel=trace.kernel, parameters=SIM_PARAMETERS,
                    control=simulation_control(), attach=False)
        for record in trace.records:
            seer.observer.handle_record(record)
        clusters = seer.build_clusters()
        assert len(clusters) > 3
        selection = seer.build_hoard(budget=3 * 1024 * 1024)
        assert selection.files
        assert selection.total_bytes <= 3 * 1024 * 1024

    def test_figures_render_from_simulation(self, trace):
        daily = simulate_miss_free(trace, DAY)
        weekly = simulate_miss_free(trace, 7 * DAY)
        figure2 = render_figure2([daily, weekly])
        assert "D" in figure2
        figure3 = render_figure3(weekly)
        assert "machine D" in figure3

    def test_tables_render_from_live(self, trace):
        live = simulate_live_usage(trace)
        table3 = render_table3([live])
        assert "D" in table3
        table4 = render_table4([live])
        assert "Table 4" in table4

    def test_shape_headline(self, trace):
        # The paper's bottom line on this machine: SEER needs less
        # space than LRU, and is within a small factor of the optimum.
        result = simulate_miss_free(trace, DAY)
        assert result.mean_seer < result.mean_lru
        assert result.mean_seer < 3 * result.mean_working_set


class TestMissServicing:
    """Section 4.4: recording a miss arranges future hoarding."""

    def test_missed_file_hoarded_at_next_refill(self, trace):
        seer = Seer(kernel=trace.kernel, parameters=SIM_PARAMETERS,
                    control=simulation_control(), attach=False)
        for record in trace.records:
            seer.observer.handle_record(record)
        from repro.core import MissSeverity
        victim = sorted(seer.correlator.known_files())[0]
        seer.build_hoard(budget=1)          # hoard almost nothing
        seer.record_manual_miss(victim, time=1.0,
                                severity=MissSeverity.TASK_CHANGED)
        refill = seer.build_hoard(budget=10**9)
        assert victim in refill
