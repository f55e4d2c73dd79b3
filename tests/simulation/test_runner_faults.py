"""Fault configuration on the parallel runner: spec validation,
checkpoint serde, and serial-vs-resumed equivalence under faults."""

import pytest

from repro.simulation.live import LiveResult
from repro.simulation.runner import (
    ShardSpec,
    execute_shard,
    reproduction_grid,
    run_shards,
)
from repro.simulation.serde import comparable_data, result_to_data
from repro.simulation.store import SqliteStore, spec_to_data

from tests.simulation.checkpoints import delete_rows

FAULTED = dict(machine="E", trace_seed=1, days=5.0,
               fault_profile="flaky", fault_seed=2)


class TestShardSpecFaults:
    def test_live_spec_carries_fault_config(self):
        spec = ShardSpec("live", **FAULTED)
        assert spec.fault_profile == "flaky"
        assert spec.fault_seed == 2

    def test_fault_profile_rejected_on_missfree_cells(self):
        with pytest.raises(ValueError, match="live and population cells"):
            ShardSpec("missfree", "E", 1, 5.0, window_seconds=86400.0,
                      fault_profile="flaky")

    def test_unknown_profile_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            ShardSpec("live", "E", 1, 5.0, fault_profile="catastrophic")

    def test_shard_id_distinguishes_fault_configs(self):
        plain = ShardSpec("live", "E", 1, 5.0)
        flaky = ShardSpec("live", **FAULTED)
        lossy = ShardSpec("live", **dict(FAULTED, fault_profile="lossy"))
        reseeded = ShardSpec("live", **dict(FAULTED, fault_seed=3))
        ids = {plain.shard_id, flaky.shard_id, lossy.shard_id,
               reseeded.shard_id}
        assert len(ids) == 4
        assert "fflaky" in flaky.shard_id and "fs2" in flaky.shard_id

    def test_spec_data_round_trip(self):
        spec = ShardSpec("live", **FAULTED)
        data = spec_to_data(spec)
        assert data["fault_profile"] == "flaky"
        assert data["fault_seed"] == 2
        rebuilt = ShardSpec(**{**data, "parameter_overrides": tuple(
            tuple(pair) for pair in data["parameter_overrides"])})
        assert rebuilt == spec

    def test_reproduction_grid_faults_live_cells_only(self):
        shards = reproduction_grid(["E"], days=5.0, seed=1,
                                   fault_profile="lossy", fault_seed=7)
        live = [s for s in shards if s.kind == "live"]
        rest = [s for s in shards if s.kind != "live"]
        assert live and rest
        assert all(s.fault_profile == "lossy" and s.fault_seed == 7
                   for s in live)
        assert all(s.fault_profile is None for s in rest)


class TestFaultedExecution:
    def test_execute_shard_applies_faults(self):
        result = execute_shard(ShardSpec("live", **FAULTED))
        assert isinstance(result, LiveResult)
        assert result.metrics["faults.injected_total"] > 0

    def test_checkpoint_round_trip_with_faults(self, tmp_path):
        spec = ShardSpec("live", **FAULTED)
        data = result_to_data(execute_shard(spec))
        with SqliteStore(str(tmp_path)) as store:
            store.put(spec, data, 0.1)
            entry = store.get(spec)
        assert entry is not None
        assert entry.result == data
        assert entry.spec_data["fault_profile"] == "flaky"

    def test_checkpoint_not_reused_for_other_fault_config(self, tmp_path):
        spec = ShardSpec("live", **FAULTED)
        data = result_to_data(execute_shard(spec))
        # Same cell, different fault seed: different shard_id, so the
        # checkpoint simply is not there to load.
        reseeded = ShardSpec("live", **dict(FAULTED, fault_seed=3))
        with SqliteStore(str(tmp_path)) as store:
            store.put(spec, data, 0.1)
            assert store.get(reseeded) is None

    def test_kill_and_resume_identical_under_faults(self, tmp_path):
        grid = [ShardSpec("live", **FAULTED),
                ShardSpec("live", **dict(FAULTED, fault_seed=3))]
        baseline = [comparable_data(o.result)
                    for o in run_shards(grid, jobs=1)]
        outcomes = run_shards(grid, jobs=2, checkpoint_dir=str(tmp_path))
        assert [comparable_data(o.result) for o in outcomes] == baseline
        # Kill one cell's checkpoint and resume: the recomputed faulted
        # cell is identical (the injector replays from its seed).
        delete_rows(str(tmp_path), [grid[0].shard_id])
        resumed = run_shards(grid, jobs=2, checkpoint_dir=str(tmp_path),
                             resume=True)
        assert [o.from_checkpoint for o in resumed] == [False, True]
        assert [comparable_data(o.result) for o in resumed] == baseline
