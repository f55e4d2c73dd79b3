"""Tests for the parameter-space search (paper section 4.9)."""

import pytest

from repro.simulation import SIM_PARAMETERS
from repro.simulation.missfree import simulate_miss_free
from repro.tuning import (
    aggregate_scores,
    hoard_overhead_objective,
    sweep_parameter,
)
from repro.workload import generate_machine_trace, machine_profile

#: The trace the ``traces`` fixture generates, named the way a sweep
#: takes it: the runner's workers rebuild it from this identity.
MACHINES, SEED, DAYS = ["E"], 3, 14
DAY = 86400.0


def objective(trace):
    """The score a sweep gives one machine's cell."""
    return hoard_overhead_objective(
        simulate_miss_free(trace, DAY, parameters=SIM_PARAMETERS))


@pytest.fixture(scope="module")
def traces():
    return [generate_machine_trace(machine_profile(machine), seed=SEED,
                                   days=DAYS)
            for machine in MACHINES]


def sweep(name, values, **kwargs):
    return sweep_parameter(SIM_PARAMETERS, name, values, MACHINES, SEED,
                           DAYS, **kwargs)


class TestObjective:
    def test_overhead_at_least_near_one(self, traces):
        assert objective(traces[0]) >= 0.9

    def test_empty_trace_infinite(self, traces):
        import copy
        empty = copy.copy(traces[0])
        empty.records = []
        assert objective(empty) == float("inf")

    def test_evaluate_across_machines(self, traces):
        # Each machine's score is the objective on that machine's trace;
        # the point's score is their mean.
        (point,) = sweep_parameter(SIM_PARAMETERS, "max_neighbors", [20],
                                   ["C", "E"], SEED, 7)
        assert point.result.per_machine.keys() == {"C", "E"}
        assert point.result.score == pytest.approx(
            sum(point.result.per_machine.values()) / 2)
        trace = generate_machine_trace(machine_profile("C"), seed=SEED,
                                       days=7)
        assert point.result.per_machine["C"] == objective(trace)


class TestSweep:
    def test_sweep_returns_point_per_value(self):
        points = sweep("max_neighbors", [10, 20])
        assert [p.value for p in points] == [10, 20]
        assert [p.result.parameters.max_neighbors for p in points] == [10, 20]

    def test_sweep_skips_invalid(self):
        points = sweep("kn_fraction", [0.1, 0.7])   # 0.1 < kf_fraction
        assert [p.value for p in points] == [0.7]

    def test_sweep_skips_non_finite(self):
        points = sweep("kf_fraction", [float("nan"), float("inf"), 0.5])
        assert [p.value for p in points] == [0.5]


class TestAggregation:
    def test_mean_over_machines(self):
        result = aggregate_scores(SIM_PARAMETERS,
                                  {"C": 1.0, "D": 2.0, "F": 3.0})
        assert result.score == pytest.approx(2.0)
        assert result.per_machine == {"C": 1.0, "D": 2.0, "F": 3.0}

    def test_single_machine_is_its_own_score(self):
        result = aggregate_scores(SIM_PARAMETERS, {"E": 1.25})
        assert result.score == pytest.approx(1.25)

    def test_empty_is_infinite(self):
        assert aggregate_scores(SIM_PARAMETERS, {}).score == float("inf")

    def test_sweep_uses_same_aggregation(self):
        (point,) = sweep("max_neighbors", [20])
        assert point.result.score == \
            aggregate_scores(SIM_PARAMETERS, point.result.per_machine).score


class TestParallelSweep:
    """sweep_parameter runs on the experiment runner at every --jobs."""

    def test_parallel_matches_serial(self):
        serial = sweep("max_neighbors", [10, 20])
        parallel = sweep("max_neighbors", [10, 20], jobs=2)
        assert [p.value for p in parallel] == [p.value for p in serial]
        for a, b in zip(serial, parallel):
            assert b.result.score == a.result.score
            assert b.result.per_machine == a.result.per_machine

    def test_parallel_skips_invalid(self):
        points = sweep("kn_fraction", [0.1, 0.7], jobs=2)
        assert [p.value for p in points] == [0.7]

    def test_checkpointed_sweep_resumes(self, tmp_path):
        first = sweep("max_neighbors", [10, 20],
                      checkpoint_dir=str(tmp_path))
        resumed = sweep("max_neighbors", [10, 20],
                        checkpoint_dir=str(tmp_path), resume=True)
        assert [p.result.score for p in resumed] == \
            [p.result.score for p in first]

    def test_duplicate_values_collapse_to_one_cell(self, tmp_path):
        points = sweep("max_neighbors", [10, 10], jobs=2,
                       checkpoint_dir=str(tmp_path))
        assert [p.value for p in points] == [10, 10]
        assert points[0].result.score == points[1].result.score

    def test_serial_sweep_generates_each_trace_once(self, monkeypatch):
        # One path: at jobs=1 the cells run in-process on the runner,
        # whose trace cache serves every value of the same machine.
        from repro.simulation import runner
        from repro.workload import generator
        made = []
        real = generator.generate_machine_trace

        def counted(*args, **kwargs):
            made.append(args[0].name)
            return real(*args, **kwargs)
        monkeypatch.setattr(runner, "_TRACE_CACHE", {})
        monkeypatch.setattr("repro.workload.generate_machine_trace", counted)
        points = sweep_parameter(SIM_PARAMETERS, "max_neighbors",
                                 [10, 20, 30], ["C"], SEED, 2)
        assert len(points) == 3
        assert made == ["C"]
