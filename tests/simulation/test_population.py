"""Population grid cells: reduction, serde, and runner equivalence."""

import pytest

from repro.simulation import SIM_PARAMETERS
from repro.simulation.missfree import simulate_miss_free
from repro.simulation.population import (
    PopulationCellResult,
    simulate_population_cell,
)
from repro.simulation.runner import (
    DAY,
    RunStats,
    ShardSpec,
    execute_shard,
    population_grid,
    run_shards,
)
from repro.simulation.serde import (
    comparable_data,
    result_from_data,
    result_to_data,
)
from repro.workload import (
    generate_machine_trace,
    machine_seed,
    sample_profile,
)

GRID = population_grid(3, 7, days=2.0)


@pytest.fixture(scope="module")
def baseline():
    """The serial ground truth, computed once."""
    return [comparable_data(o.result) for o in run_shards(GRID, jobs=1)]


class TestGrid:
    def test_one_cell_per_machine_with_unique_ids(self):
        assert len(GRID) == 3
        assert len({spec.shard_id for spec in GRID}) == 3
        assert [spec.machine for spec in GRID] == \
            ["pop7-000000", "pop7-000001", "pop7-000002"]

    def test_trace_seed_is_the_machine_seed(self):
        for index, spec in enumerate(GRID):
            assert spec.trace_seed == machine_seed(7, index)

    def test_investigators_follow_the_sampled_profile(self):
        for index, spec in enumerate(GRID):
            assert spec.use_investigators == \
                sample_profile(7, index).uses_investigators

    def test_population_kind_accepted_with_fault_profile(self):
        spec = ShardSpec("population", "pop7-000000", 1, 2.0,
                         window_seconds=DAY, fault_profile="flaky",
                         fault_seed=3)
        assert "fflaky" in spec.shard_id

    def test_missfree_still_rejects_fault_profiles(self):
        with pytest.raises(ValueError):
            ShardSpec("missfree", "E", 1, 2.0, window_seconds=DAY,
                      fault_profile="flaky")


class TestCellReduction:
    def test_cell_matches_direct_simulation(self, baseline):
        trace = generate_machine_trace(sample_profile(7, 0),
                                       seed=machine_seed(7, 0), days=2.0)
        direct = simulate_population_cell(trace, DAY,
                                          parameters=SIM_PARAMETERS)
        assert comparable_data(direct) == baseline[0]

    def test_scorecard_is_consistent(self, baseline):
        result = result_from_data(dict(baseline[0], metrics=None))
        assert isinstance(result, PopulationCellResult)
        assert result.windows >= 1
        assert result.mean_working_set <= result.mean_seer
        assert result.mean_working_set <= result.mean_lru
        assert result.mean_coda > 0 and result.mean_spy > 0
        assert 0 <= result.failed_disconnections <= result.disconnections
        assert 0.0 <= result.failure_rate <= 1.0

    def test_serde_round_trips_exactly(self):
        result = execute_shard(GRID[0])
        assert result_from_data(result_to_data(result)) == result

    def test_comparable_data_strips_metrics_only(self):
        result = execute_shard(GRID[0])
        data = result_to_data(result)
        stripped = comparable_data(result)
        assert "metrics" not in stripped
        assert stripped == {k: v for k, v in data.items() if k != "metrics"}

    def test_merged_metrics_include_fault_counters(self):
        spec = ShardSpec("population", "pop7-000000", machine_seed(7, 0),
                         2.0, window_seconds=DAY, fault_profile="flaky",
                         fault_seed=3)
        result = execute_shard(spec)
        assert isinstance(result, PopulationCellResult)
        assert result.metrics is not None
        assert result.metrics.get("faults.injected_total", 0) > 0

    def test_zero_disconnection_machine_runs_end_to_end(self):
        # The generate_schedule regression class: a machine whose
        # sampled profile rounds to zero disconnections must still
        # produce a full scorecard (its live pass just has no
        # disconnections to fail).
        index = next(i for i in range(1000)
                     if sample_profile(7, i).n_disconnections == 0)
        spec = ShardSpec("population", f"pop7-{index:06d}",
                         machine_seed(7, index), 2.0, window_seconds=DAY)
        result = execute_shard(spec)
        assert isinstance(result, PopulationCellResult)
        assert result.disconnections == 0
        assert result.failed_disconnections == 0
        assert result.failure_rate == 0.0


class TestCodaBaseline:
    def test_coda_scored_only_when_requested(self):
        trace = generate_machine_trace(sample_profile(7, 0),
                                       seed=machine_seed(7, 0), days=2.0)
        without = simulate_miss_free(trace, DAY, parameters=SIM_PARAMETERS)
        assert all(w.coda_bytes == 0 for w in without.windows)
        assert without.mean_coda == 0.0
        scored = simulate_miss_free(trace, DAY, parameters=SIM_PARAMETERS,
                                    include_coda=True)
        assert all(w.coda_bytes > 0 for w in scored.windows)
        # Scoring CODA alongside must not perturb the other measures.
        assert [(w.seer_bytes, w.lru_bytes, w.working_set_bytes)
                for w in scored.windows] == \
            [(w.seer_bytes, w.lru_bytes, w.working_set_bytes)
             for w in without.windows]


class TestRunnerEquivalence:
    def test_parallel_matches_serial(self, baseline):
        outcomes = run_shards(GRID, jobs=2)
        assert [comparable_data(o.result) for o in outcomes] == baseline

    def test_resume_matches_serial(self, baseline, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        first = run_shards(GRID[:2], jobs=1, checkpoint_dir=checkpoint_dir)
        assert len(first) == 2
        stats = RunStats()
        resumed = run_shards(GRID, jobs=2, checkpoint_dir=checkpoint_dir,
                             resume=True, stats=stats)
        assert stats.shards_from_checkpoint == 2
        assert stats.shards_run == 1
        assert [comparable_data(o.result) for o in resumed] == baseline

    def test_sqlite_store_matches_serial(self, baseline, tmp_path):
        checkpoint_dir = str(tmp_path / "sqlite")
        outcomes = run_shards(GRID, jobs=1, checkpoint_dir=checkpoint_dir)
        assert [comparable_data(o.result) for o in outcomes] == baseline
        resumed = run_shards(GRID, jobs=1, checkpoint_dir=checkpoint_dir,
                             resume=True)
        assert all(o.from_checkpoint for o in resumed)
        assert [comparable_data(o.result) for o in resumed] == baseline
