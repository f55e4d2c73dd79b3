"""Unit tests for the parallel experiment runner."""

import os

import pytest

from repro.observability import Metrics
from repro.simulation.runner import (
    DAY,
    WEEK,
    RunStats,
    ShardSpec,
    figure2_grid,
    reproduction_grid,
    run_shards,
    spec_for_parameters,
)
from repro.simulation.serde import comparable_data
from repro.simulation.store import SqliteStore

from tests.simulation.checkpoints import delete_rows, stored_ids, tamper_rows


SMALL = dict(machine="E", trace_seed=1, days=5.0)


def small_grid():
    return [
        ShardSpec("missfree", window_seconds=DAY, **SMALL),
        ShardSpec("missfree", window_seconds=WEEK, **SMALL),
        ShardSpec("live", **SMALL),
    ]


class TestShardSpec:
    def test_id_is_deterministic(self):
        a = ShardSpec("missfree", "C", 1, 28.0, window_seconds=DAY)
        b = ShardSpec("missfree", "C", 1, 28.0, window_seconds=DAY)
        assert a.shard_id == b.shard_id

    def test_id_distinguishes_every_axis(self):
        base = ShardSpec("missfree", "C", 1, 28.0, window_seconds=DAY)
        variants = [
            ShardSpec("live", "C", 1, 28.0),
            ShardSpec("missfree", "D", 1, 28.0, window_seconds=DAY),
            ShardSpec("missfree", "C", 2, 28.0, window_seconds=DAY),
            ShardSpec("missfree", "C", 1, 14.0, window_seconds=DAY),
            ShardSpec("missfree", "C", 1, 28.0, window_seconds=WEEK),
            ShardSpec("missfree", "C", 1, 28.0, window_seconds=DAY,
                      use_investigators=True),
            ShardSpec("missfree", "C", 1, 28.0, window_seconds=DAY,
                      size_seed=3),
        ]
        ids = {base.shard_id} | {v.shard_id for v in variants}
        assert len(ids) == len(variants) + 1

    def test_id_reflects_parameters(self):
        from repro.simulation import SIM_PARAMETERS
        base = ShardSpec("missfree", "C", 1, 28.0, window_seconds=DAY)
        a = spec_for_parameters(base, SIM_PARAMETERS)
        b = spec_for_parameters(base,
                                SIM_PARAMETERS.with_changes(max_neighbors=7))
        assert a.shard_id != b.shard_id
        assert a.shard_id == spec_for_parameters(base, SIM_PARAMETERS).shard_id

    def test_parameters_rebuilt_exactly(self):
        from repro.simulation import SIM_PARAMETERS
        spec = spec_for_parameters(
            ShardSpec("missfree", "C", 1, 28.0, window_seconds=DAY),
            SIM_PARAMETERS)
        assert spec.parameters() == SIM_PARAMETERS

    def test_default_parameters_are_none(self):
        assert ShardSpec("live", "C", 1, 28.0).parameters() is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ShardSpec("mystery", "C", 1, 28.0)

    def test_objective_kind_is_gone(self):
        # A sweep point is a plain miss-free cell, scored by the caller.
        with pytest.raises(ValueError, match="unknown shard kind"):
            ShardSpec("objective", "C", 1, 28.0, window_seconds=DAY)

    def test_id_is_filesystem_safe(self):
        for spec in reproduction_grid(list("ABC"), 28.0, 1):
            assert spec.shard_id == os.path.basename(spec.shard_id)
            assert "/" not in spec.shard_id and " " not in spec.shard_id


class TestGrids:
    def test_figure2_grid_shape(self):
        shards = figure2_grid(["C", "F"], 28.0, 1, investigators=True)
        # C: daily+weekly; F (an investigator machine): those plus two
        # investigator cells.
        kinds = [(s.machine, s.window_seconds, s.use_investigators)
                 for s in shards]
        assert kinds == [
            ("C", DAY, False), ("C", WEEK, False),
            ("F", DAY, False), ("F", WEEK, False),
            ("F", DAY, True), ("F", WEEK, True),
        ]

    def test_figure2_grid_without_investigators(self):
        shards = figure2_grid(["F"], 28.0, 1, investigators=False)
        assert all(not s.use_investigators for s in shards)

    def test_reproduction_grid_matches_serial_order(self):
        shards = reproduction_grid(["B"], 10.0, 1)
        assert [s.kind for s in shards] == ["missfree"] * 4 + ["live"]
        assert [s.use_investigators for s in shards] == \
            [False, False, True, True, False]


class TestCheckpoints:
    """One cell's checkpoint in the store: written, reloaded, or
    discarded -- and counted -- when it cannot be trusted."""

    def test_write_then_load(self, tmp_path):
        spec = small_grid()[0]
        data = {"type": "missfree", "machine": "E"}
        with SqliteStore(str(tmp_path)) as store:
            store.put(spec, data, 1.5)
        with SqliteStore(str(tmp_path)) as store:   # a later process
            entry = store.get(spec)
        assert entry.result == data
        assert entry.elapsed_seconds == 1.5

    def test_missing_returns_none(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            assert store.get(small_grid()[0]) is None
            assert store.corrupt_discarded == 0   # missing is not corrupt

    def test_corrupt_file_discarded(self, tmp_path):
        with open(os.path.join(str(tmp_path), SqliteStore.FILENAME),
                  "w") as stream:
            stream.write('{"format": 1, "spec": {')   # not a database
        with SqliteStore(str(tmp_path)) as store:
            assert store.get(small_grid()[0]) is None
            assert store.corrupt_discarded == 1

    def test_wrong_format_discarded(self, tmp_path):
        spec = small_grid()[0]
        with SqliteStore(str(tmp_path)) as store:
            store.put(spec, {"type": "missfree"}, 0.0)
        tamper_rows(str(tmp_path), [spec.shard_id])
        with SqliteStore(str(tmp_path)) as store:
            assert store.get(spec) is None
            assert store.corrupt_discarded == 1

    def test_spec_mismatch_discarded(self, tmp_path):
        """A checkpoint recorded for a different cell is never reused,
        even if it somehow landed under this cell's shard id."""
        spec, other = small_grid()[0], small_grid()[1]
        with SqliteStore(str(tmp_path)) as store:
            store.put(other, {"type": "missfree"}, 0.1)
            store.flush()
            store._conn.execute("UPDATE checkpoints SET shard_id = ?",
                                (spec.shard_id,))
            store._conn.commit()
            assert store.get(spec) is None
            assert store.corrupt_discarded == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            store.put(small_grid()[0], {"a": 1}, 0.0)
        assert os.listdir(tmp_path) == [SqliteStore.FILENAME]


class TestRunShards:
    def test_duplicate_ids_rejected(self):
        spec = small_grid()[0]
        with pytest.raises(ValueError):
            run_shards([spec, spec])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_shards(small_grid(), jobs=0)

    def test_outcomes_in_grid_order(self):
        shards = small_grid()
        outcomes = run_shards(shards, jobs=1)
        assert [o.spec for o in outcomes] == shards

    def test_checkpoints_written(self, tmp_path):
        shards = small_grid()
        run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path))
        assert os.listdir(tmp_path) == [SqliteStore.FILENAME]
        assert stored_ids(str(tmp_path)) == \
            sorted(s.shard_id for s in shards)

    def test_resume_skips_completed_cells(self, tmp_path):
        shards = small_grid()
        first = run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path))
        # Lose one cell, as if the sweep was killed before writing it.
        delete_rows(str(tmp_path), [shards[1].shard_id])
        stats = RunStats()
        second = run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path),
                            resume=True, stats=stats)
        assert stats.shards_from_checkpoint == 2
        assert stats.shards_run == 1
        assert [o.from_checkpoint for o in second] == [True, False, True]
        assert [comparable_data(o.result) for o in first] == \
            [comparable_data(o.result) for o in second]

    def test_without_resume_everything_recomputes(self, tmp_path):
        shards = small_grid()
        run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path))
        stats = RunStats()
        run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path), stats=stats)
        assert stats.shards_run == len(shards)
        assert stats.shards_from_checkpoint == 0

    def test_parameterised_missfree_shard_runs(self):
        # A sweep's cell carries the full parameter set; under the
        # harness defaults it replays exactly as the plain cell does.
        from repro.simulation import SIM_PARAMETERS
        plain = ShardSpec("missfree", window_seconds=DAY, **SMALL)
        keyed = spec_for_parameters(plain, SIM_PARAMETERS)
        assert keyed.shard_id != plain.shard_id
        first, second = run_shards([plain, keyed], jobs=1)
        assert second.result.windows
        assert comparable_data(second.result) == \
            comparable_data(first.result)

    def test_metrics_threaded_through(self):
        metrics = Metrics()
        run_shards(small_grid(), jobs=1, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["runner.shards_total"] == 3
        assert snapshot["runner.shards_completed"] == 3
        assert snapshot["runner.machine.E.calls"] == 3
        assert snapshot["runner.shard.missfree.calls"] == 2
        assert snapshot["runner.shard.live.calls"] == 1
        assert "runner.pool_utilization_percent" in snapshot
        # Workers' ingestion counters are merged at join.
        assert snapshot.get("correlator.distances_ingested", 0) > 0
        # ...but their wall-clock span derivatives are not summed.
        assert "correlator.ingest.per_second" not in snapshot

    def test_stats_utilization(self):
        stats = RunStats(wall_seconds=10.0, busy_seconds=15.0, jobs=2)
        assert stats.pool_utilization == pytest.approx(0.75)
        assert RunStats().pool_utilization == 0.0

    def test_progress_messages(self, tmp_path):
        messages = []
        run_shards(small_grid(), jobs=1, checkpoint_dir=str(tmp_path),
                   progress=messages.append)
        assert len(messages) == 3 and all("machine E" in m for m in messages)
        messages.clear()
        run_shards(small_grid(), jobs=1, checkpoint_dir=str(tmp_path),
                   resume=True, progress=messages.append)
        assert all("restored from checkpoint" in m for m in messages)


class TestRunShardsStore:
    """run_shards against the checkpoint store (docs/state-store.md)."""

    def test_corrupt_checkpoint_counted_in_stats_and_metrics(self, tmp_path):
        """A corrupt checkpoint is recomputed *and reported*, never
        silently dropped (runner.store.corrupt_discarded)."""
        shards = small_grid()
        run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path))
        tamper_rows(str(tmp_path), [shards[0].shard_id])
        metrics = Metrics()
        stats = RunStats()
        run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path),
                   resume=True, stats=stats, metrics=metrics)
        assert stats.corrupt_discarded == 1
        assert stats.shards_run == 1
        assert stats.shards_from_checkpoint == len(shards) - 1
        snapshot = metrics.snapshot()
        assert snapshot["runner.store.corrupt_discarded"] == 1
        assert snapshot["runner.store.writes"] == 1
        assert snapshot["runner.store.bytes_on_disk"] > 0

    def test_sqlite_store_resumes(self, tmp_path):
        shards = small_grid()
        first = run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path))
        assert os.path.exists(str(tmp_path / "checkpoints.sqlite"))
        stats = RunStats()
        second = run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path),
                            resume=True, stats=stats)
        assert stats.shards_from_checkpoint == len(shards)
        assert stats.shards_run == 0
        assert [comparable_data(o.result) for o in first] == \
            [comparable_data(o.result) for o in second]

    def test_unknown_store_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown checkpoint store"):
            run_shards(small_grid(), jobs=1, checkpoint_dir=str(tmp_path),
                       store="parquet")

    def test_consume_streams_in_grid_order(self, tmp_path):
        shards = small_grid()
        plain = run_shards(shards, jobs=1)
        streamed = []
        returned = run_shards(shards, jobs=2, checkpoint_dir=str(tmp_path),
                              consume=streamed.append)
        assert returned == []
        assert [o.spec.shard_id for o in streamed] == \
            [s.shard_id for s in shards]
        assert [comparable_data(o.result) for o in streamed] == \
            [comparable_data(o.result) for o in plain]

    @staticmethod
    def _damage_at_join(root, shards, damage, seen=None):
        """A consumer that, on seeing cell 0, damages cell 1's row
        (calling *seen* first)."""
        def consume(outcome):
            if outcome.spec.shard_id == shards[0].shard_id:
                if seen is not None:
                    seen()
                damage(root, [shards[1].shard_id])
        return consume

    def test_join_raises_when_a_row_is_deleted(self, tmp_path):
        shards = small_grid()
        root = str(tmp_path)
        run_shards(shards, jobs=1, checkpoint_dir=root)
        with pytest.raises(RuntimeError,
                           match=f"checkpoint for {shards[1].shard_id} "
                                 f"is missing or unusable at the join"):
            run_shards(shards, jobs=1, checkpoint_dir=root, resume=True,
                       consume=self._damage_at_join(root, shards,
                                                    delete_rows))

    def test_join_raises_and_counts_a_tampered_row(self, tmp_path):
        shards = small_grid()
        root = str(tmp_path)
        run_shards(shards, jobs=1, checkpoint_dir=root)
        metrics = Metrics()
        counted = []

        def discarded():
            counted.append(metrics.snapshot().get(
                "runner.store.corrupt_discarded", 0))

        with pytest.raises(RuntimeError,
                           match=f"checkpoint for {shards[1].shard_id} "
                                 f"is missing or unusable at the join"):
            run_shards(shards, jobs=1, checkpoint_dir=root, resume=True,
                       metrics=metrics,
                       consume=self._damage_at_join(root, shards,
                                                    tamper_rows, discarded))
        discarded()
        assert counted == [0, 1]

    def test_consume_without_store_buffers_in_memory(self):
        shards = small_grid()
        streamed = []
        returned = run_shards(shards, jobs=1, consume=streamed.append)
        assert returned == []
        assert [o.spec.shard_id for o in streamed] == \
            [s.shard_id for s in shards]

    def test_compact_keeps_resume_working(self, tmp_path):
        shards = small_grid()
        run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path))
        with SqliteStore(str(tmp_path)) as store:
            store.compact(keep=[s.shard_id for s in shards])
        assert os.listdir(tmp_path) == [SqliteStore.FILENAME]
        assert stored_ids(str(tmp_path)) == \
            sorted(s.shard_id for s in shards)
        stats = RunStats()
        run_shards(shards, jobs=1, checkpoint_dir=str(tmp_path),
                   resume=True, stats=stats)
        assert stats.shards_from_checkpoint == len(shards)
