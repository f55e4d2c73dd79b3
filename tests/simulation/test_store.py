"""Unit tests for the checkpoint store.

Store behaviour is pinned with cheap synthetic payloads (no simulation
runs): round-trips, fingerprint/schema validation, corrupt-entry
counting, batching and compaction.  The per-cell checkpoint contract
(missing, corrupt and mismatched entries) is pinned in
``test_runner.py::TestCheckpoints``; restoring *real* randomized grids
by ``test_store_differential.py``; crash and torn-write recovery by
``test_store_properties.py``.
"""

import json
import os
import sqlite3

import pytest

from repro.observability import Metrics
from repro.simulation.runner import DAY, ShardSpec
from repro.simulation.serde import canonical_bytes, payload_fingerprint
from repro.simulation.store import (
    BATCH_SIZE,
    SCHEMA_VERSION,
    SqliteStore,
    spec_to_data,
)


def spec_for(index: int) -> ShardSpec:
    return ShardSpec("missfree", "E", index, 5.0, window_seconds=DAY)


def data_for(index: int):
    return {"type": "objective", "score": float(index) + 0.25}


def fill(store, count):
    specs = [spec_for(i) for i in range(count)]
    for i, spec in enumerate(specs):
        store.put(spec, data_for(i), elapsed_seconds=0.5 * i)
    return specs


class TestSqliteStore:
    def test_round_trip_with_fingerprint(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            (spec,) = fill(store, 1)
            entry = store.get(spec)
        assert entry.shard_id == spec.shard_id
        assert entry.result == data_for(0)
        assert entry.elapsed_seconds == 0.0
        assert entry.schema_version == SCHEMA_VERSION
        assert entry.fingerprint == payload_fingerprint(data_for(0))
        assert entry.spec_data == spec_to_data(spec)

    def test_single_file_on_disk(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            fill(store, 10)
        names = sorted(os.listdir(tmp_path))
        assert names == ["checkpoints.sqlite"]

    def test_batched_transactions(self, tmp_path):
        metrics = Metrics()
        store = SqliteStore(str(tmp_path), metrics=metrics).open()
        puts = 2 * BATCH_SIZE + 2   # 2 full batches + 2 pending
        fill(store, puts)
        assert store.batched_txns == 2
        store.close()     # close flushes the remainder
        assert store.batched_txns == 3
        assert store.bytes_on_disk() > 0
        assert store.writes == puts
        assert metrics.counter("runner.store.writes") == puts
        assert metrics.counter("runner.store.batched_txns") == 3

    def test_get_reads_its_own_pending_writes(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            (spec,) = fill(store, 1)
            assert store.batched_txns == 0   # still buffered
            assert store.get(spec).result == data_for(0)

    def test_put_supersedes_and_get_reads_latest(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            spec = spec_for(0)
            store.put(spec, {"type": "objective", "score": 1.0}, 0.0)
            store.put(spec, {"type": "objective", "score": 2.0}, 0.0)
            assert store.get(spec).result["score"] == 2.0
            store.flush()
            rows = store._conn.execute(
                "SELECT COUNT(*) FROM checkpoints").fetchone()[0]
        assert rows == 1   # the superseded generation went in the commit

    def test_failed_commit_is_dropped_not_retried(self, tmp_path):
        """A commit that fails (a full disk) loses its batch, like a
        crash would; later reads and writes do not raise it again."""
        with SqliteStore(str(tmp_path)) as store:
            first, second = spec_for(0), spec_for(1)
            store.put(first, data_for(0), 0.0)
            store._conn.execute(
                "CREATE TRIGGER disk_full BEFORE INSERT ON checkpoints"
                " BEGIN SELECT RAISE(FAIL, 'database or disk is full');"
                " END")
            with pytest.raises(sqlite3.Error):
                store.flush()
            assert store.get(first) is None      # no retry, no raise
            store._conn.execute("DROP TRIGGER disk_full")
            store.put(second, data_for(1), 0.0)
            assert store.get(second).result == data_for(1)
            assert store.batched_txns == 1

    def test_fingerprint_tamper_detected(self, tmp_path):
        metrics = Metrics()
        with SqliteStore(str(tmp_path), metrics=metrics) as store:
            (spec,) = fill(store, 1)
            store.flush()
            store._conn.execute(
                "UPDATE checkpoints SET result = ?",
                (json.dumps({"type": "objective", "score": 99.0}),))
            store._conn.commit()
            assert store.get(spec) is None
            assert store.corrupt_discarded == 1
        assert metrics.counter("runner.store.corrupt_discarded") == 1

    def test_stale_schema_version_discarded(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            (spec,) = fill(store, 1)
            store.flush()
            store._conn.execute(
                "UPDATE checkpoints SET schema_version = 999")
            store._conn.commit()
            assert store.get(spec) is None
            assert store.corrupt_discarded == 1

    def test_iter_completed_in_shard_id_order(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            specs = fill(store, 5)
            ids = [e.shard_id for e in store.iter_completed()]
        assert ids == sorted(s.shard_id for s in specs)

    def test_iter_completed_sorted_and_skips_corrupt(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            specs = fill(store, 4)
            store.flush()
            store._conn.execute(
                "UPDATE checkpoints SET result = 'not json'"
                " WHERE shard_id = ?", (specs[1].shard_id,))
            store._conn.execute(
                "UPDATE checkpoints SET schema_version = 999"
                " WHERE shard_id = ?", (specs[2].shard_id,))
            store._conn.commit()
            ids = [e.shard_id for e in store.iter_completed()]
            assert ids == sorted([specs[0].shard_id, specs[3].shard_id])
            assert store.corrupt_discarded == 2


class TestCompaction:
    def test_sqlite_removes_superseded_and_corrupt(self, tmp_path):
        """The commit removes a superseded generation; compaction
        removes a corrupt row."""
        metrics = Metrics()
        with SqliteStore(str(tmp_path), metrics=metrics) as store:
            specs = fill(store, 4)
            store.put(specs[0], data_for(0), 0.0)   # supersede
            store.flush()
            assert store._conn.execute(
                "SELECT COUNT(*) FROM checkpoints").fetchone()[0] == 4
            # Corrupt one cell outright.
            store._conn.execute(
                "UPDATE checkpoints SET result = 'garbage' "
                "WHERE shard_id = ?", (specs[1].shard_id,))
            store._conn.commit()
            stats = store.compact(keep=[s.shard_id for s in specs])
            assert stats.removed_corrupt == 1
            assert stats.removed_stale == 0
            assert store.compacted == stats.removed_total
            assert metrics.counter("runner.store.compacted") == \
                stats.removed_total
            rows = store._conn.execute(
                "SELECT COUNT(*) FROM checkpoints").fetchone()[0]
            assert rows == 3    # 4 cells - 1 corrupt
            for i, spec in enumerate(specs):
                if i == 1:
                    assert store.get(spec) is None
                else:
                    assert store.get(spec).result == data_for(i)

    def test_sqlite_compact_removes_stale(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            specs = fill(store, 5)
            keep = [s.shard_id for s in specs[:2]]
            stats = store.compact(keep=keep)
            assert stats.removed_stale == 3
            assert sorted(e.shard_id for e in store.iter_completed()) == \
                sorted(keep)

    def test_sqlite_file_count_is_o1(self, tmp_path):
        """An N-cell grid is O(1) files on disk, not one per cell."""
        with SqliteStore(str(tmp_path)) as store:
            fill(store, 40)
            store.compact()
            assert len(os.listdir(tmp_path)) <= 3
        # ...and after a clean close the sidecar files are gone too.
        assert sorted(os.listdir(tmp_path)) == ["checkpoints.sqlite"]

    def test_compact_reclaims_bytes(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            specs = fill(store, 10)
            stats = store.compact(keep=[s.shard_id for s in specs[:5]])
            assert stats.removed_stale == 5
            assert stats.bytes_after <= stats.bytes_before


class TestOpenStore:
    def test_canonical_bytes_is_order_insensitive(self):
        a = {"b": 1, "a": [1.5, "x"]}
        b = {"a": [1.5, "x"], "b": 1}
        assert canonical_bytes(a) == canonical_bytes(b)
        assert payload_fingerprint(a) == payload_fingerprint(b)
