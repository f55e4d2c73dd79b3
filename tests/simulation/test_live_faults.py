"""Fault injection in the live-usage replay, the no-fault
byte-equivalence guarantee, and the end-of-trace drain regression
(records stamped after the final schedule period must still reach the
observer)."""

import dataclasses

import pytest

from repro.core.seer import Seer
from repro.faults import FLAKY, NO_FAULTS, profile_from_name
from repro.simulation.live import simulate_live_usage
from repro.simulation.serde import (comparable_data, result_from_data,
                                   result_to_data)
from repro.workload import generate_machine_trace, machine_profile
from repro.workload.sessions import Schedule


@pytest.fixture(scope="module")
def trace():
    return generate_machine_trace(machine_profile("E"), seed=1, days=10)


@pytest.fixture(scope="module")
def clean_result(trace):
    return simulate_live_usage(trace)


def _counters(result):
    """The deterministic slice of a metrics snapshot (wall-clock
    timings legitimately vary run to run)."""
    return {name: value for name, value in result.metrics.items()
            if "second" not in name}


class TestNoFaultEquivalence:
    def test_none_profile_identical_to_no_profile(self, trace, clean_result):
        for spelling in ("none", NO_FAULTS):
            faulted = simulate_live_usage(trace, fault_profile=spelling,
                                          fault_seed=123)
            assert comparable_data(faulted) == comparable_data(clean_result)
            assert _counters(faulted) == _counters(clean_result)

    def test_no_fault_counters_without_a_profile(self, clean_result):
        assert not any(name.startswith("faults.")
                       for name in clean_result.metrics)

    def test_no_outcome_marked_interrupted(self, clean_result):
        assert not any(o.fill_interrupted for o in clean_result.outcomes)


class TestFaultedReplay:
    def test_same_profile_and_seed_replays_identically(self, trace):
        first = simulate_live_usage(trace, fault_profile="hostile",
                                    fault_seed=4)
        second = simulate_live_usage(trace, fault_profile="hostile",
                                     fault_seed=4)
        assert comparable_data(first) == comparable_data(second)
        assert _counters(first) == _counters(second)

    def test_fault_counters_surface_in_metrics(self, trace):
        result = simulate_live_usage(trace, fault_profile=FLAKY, fault_seed=2)
        assert result.metrics["faults.injected_total"] > 0

    def test_faults_only_shrink_the_hoard(self, trace, clean_result):
        """Fill faults remove files from the hoard but never touch the
        SEER state machine, so outcome-for-outcome the faulted replay
        hoards no more bytes and misses no fewer files."""
        hostile = simulate_live_usage(trace, fault_profile="hostile",
                                      fault_seed=1)
        assert len(hostile.outcomes) == len(clean_result.outcomes)
        for faulted, clean in zip(hostile.outcomes, clean_result.outcomes):
            assert faulted.period == clean.period
            assert faulted.hoard_bytes <= clean.hoard_bytes
            assert len(faulted.automatic_misses) >= \
                len(clean.automatic_misses)

    def test_interrupted_fill_recorded_on_outcome(self, trace):
        for seed in range(6):
            result = simulate_live_usage(trace, fault_profile="hostile",
                                         fault_seed=seed)
            interrupted = [o for o in result.outcomes if o.fill_interrupted]
            if interrupted:
                assert result.metrics["faults.fill_interrupted"] >= \
                    len(interrupted)
                break
        else:
            pytest.fail("no fill interruption across six hostile seeds")

    def test_string_profile_resolved_by_name(self, trace):
        by_name = simulate_live_usage(trace, fault_profile="flaky",
                                      fault_seed=9)
        by_object = simulate_live_usage(
            trace, fault_profile=profile_from_name("flaky"), fault_seed=9)
        assert comparable_data(by_name) == comparable_data(by_object)

    def test_unknown_profile_rejected(self, trace):
        with pytest.raises(ValueError, match="unknown fault profile"):
            simulate_live_usage(trace, fault_profile="catastrophic")

    def test_fill_interrupted_survives_serde(self, trace):
        result = simulate_live_usage(trace, fault_profile="hostile",
                                     fault_seed=1)
        round_tripped = result_from_data(result_to_data(result))
        assert [o.fill_interrupted for o in round_tripped.outcomes] == \
            [o.fill_interrupted for o in result.outcomes]


class TestEndOfTraceDrain:
    """Satellite: records stamped after the final schedule period must
    still be fed to the observer."""

    def _truncated(self, trace):
        """A copy of *trace* whose schedule ends before its records."""
        last_record = trace.records[-1].time
        periods = [p for p in trace.schedule.periods if p.end < last_record]
        assert periods, "trace too short to truncate"
        truncated = dataclasses.replace(trace,
                                        schedule=Schedule(periods=periods))
        tail = [r for r in trace.records if r.time >= periods[-1].end]
        assert tail, "no records past the truncated schedule"
        return truncated

    def test_all_records_reach_the_observer(self, trace):
        truncated = self._truncated(trace)
        result = simulate_live_usage(truncated)

        # Ground truth: a fresh SEER fed the whole trace directly.
        from repro.simulation import SIM_PARAMETERS, simulation_control
        seer = Seer(kernel=trace.kernel, parameters=SIM_PARAMETERS,
                    control=simulation_control(), attach=False)
        for record in trace.records:
            seer.observer.handle_record(record)
        expected = seer.metrics.snapshot()["correlator.ingest.count"]

        assert result.metrics["correlator.ingest.count"] == expected
