"""Unit tests for the pluggable checkpoint state stores.

Backend behaviour is pinned with cheap synthetic payloads (no
simulation runs): round-trips, fingerprint/schema/spec validation,
corrupt-entry counting, batching, compaction and the PR 3
byte-compatibility guarantee of the JSON backend.  Equivalence on
*real* randomized grids is covered by
``test_store_differential.py``; crash and torn-write recovery by
``test_store_properties.py``.
"""

import json
import os
import sqlite3

import pytest

from repro.observability import Metrics
from repro.simulation.runner import (
    DAY,
    ShardSpec,
    checkpoint_path,
    load_checkpoint,
    write_checkpoint,
)
from repro.simulation.serde import canonical_bytes, payload_fingerprint
from repro.simulation.store import (
    SCHEMA_VERSION,
    JsonDirStore,
    SqliteStore,
    open_store,
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


class TestJsonDirStore:
    def test_round_trip(self, tmp_path):
        with JsonDirStore(str(tmp_path)) as store:
            (spec,) = fill(store, 1)
            entry = store.get(spec)
        assert entry.shard_id == spec.shard_id
        assert entry.result == data_for(0)
        assert entry.elapsed_seconds == 0.0
        assert entry.schema_version == SCHEMA_VERSION
        assert entry.spec_data == spec_to_data(spec)

    def test_byte_compatible_with_pr3_layout(self, tmp_path):
        """The file bytes are exactly what the PR 3 runner wrote.

        This is the compatibility contract: old result directories
        resume under the store, and store-written directories resume
        under old code.  The expected bytes are constructed from the
        original payload shape, not by calling back into the store.
        """
        spec, data = spec_for(3), data_for(3)
        JsonDirStore(str(tmp_path)).open().put(spec, data, 1.5)
        legacy_payload = {
            "format": 1,
            "shard_id": spec.shard_id,
            "spec": spec_to_data(spec),
            "elapsed_seconds": 1.5,
            "result": data,
        }
        with open(checkpoint_path(str(tmp_path), spec),
                  encoding="utf-8") as stream:
            assert stream.read() == json.dumps(legacy_payload)

    def test_legacy_helpers_interoperate(self, tmp_path):
        spec, data = spec_for(1), data_for(1)
        write_checkpoint(str(tmp_path), spec, data, 2.0)
        entry = JsonDirStore(str(tmp_path)).get(spec)
        assert entry.result == data
        payload = load_checkpoint(str(tmp_path), spec)
        assert payload["result"] == data
        assert payload["elapsed_seconds"] == 2.0

    def test_missing_is_not_corrupt(self, tmp_path):
        store = JsonDirStore(str(tmp_path)).open()
        assert store.get(spec_for(0)) is None
        assert store.corrupt_discarded == 0

    def test_corrupt_file_discarded_and_counted(self, tmp_path):
        metrics = Metrics()
        store = JsonDirStore(str(tmp_path), metrics=metrics).open()
        spec = spec_for(0)
        with open(store.path_for(spec.shard_id), "w") as stream:
            stream.write('{"format": 1, "spec": {')   # torn write
        assert store.get(spec) is None
        assert store.corrupt_discarded == 1
        assert metrics.counter("runner.store.corrupt_discarded") == 1

    def test_stale_schema_version_discarded(self, tmp_path):
        store = JsonDirStore(str(tmp_path)).open()
        spec = spec_for(0)
        with open(store.path_for(spec.shard_id), "w") as stream:
            json.dump({"format": 999, "spec": spec_to_data(spec),
                       "result": {"type": "objective", "score": 1.0}},
                      stream)
        assert store.get(spec) is None
        assert store.corrupt_discarded == 1

    def test_spec_mismatch_discarded(self, tmp_path):
        store = JsonDirStore(str(tmp_path)).open()
        store.put(spec_for(1), data_for(1), 0.0)
        os.replace(store.path_for(spec_for(1).shard_id),
                   store.path_for(spec_for(0).shard_id))
        assert store.get(spec_for(0)) is None
        assert store.corrupt_discarded == 1

    def test_iter_completed_sorted_and_skips_corrupt(self, tmp_path):
        store = JsonDirStore(str(tmp_path)).open()
        specs = fill(store, 3)
        with open(os.path.join(str(tmp_path), "zz-broken.json"),
                  "w") as stream:
            stream.write("not json")
        entries = list(store.iter_completed())
        assert [e.shard_id for e in entries] == \
            sorted(s.shard_id for s in specs)
        assert store.corrupt_discarded == 1

    def test_write_metrics_mirrored(self, tmp_path):
        metrics = Metrics()
        store = JsonDirStore(str(tmp_path), metrics=metrics).open()
        fill(store, 2)
        assert store.writes == 2
        assert metrics.counter("runner.store.writes") == 2
        assert store.bytes_on_disk() > 0


class TestSqliteStore:
    def test_round_trip_with_fingerprint(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            (spec,) = fill(store, 1)
            entry = store.get(spec)
        assert entry.result == data_for(0)
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
        store = SqliteStore(str(tmp_path), metrics=metrics,
                            batch_size=4).open()
        fill(store, 10)   # 10 puts -> 2 full batches + 2 pending
        assert store.batched_txns == 2
        store.close()     # close flushes the remainder
        assert store.batched_txns == 3
        assert store.writes == 10
        assert metrics.counter("runner.store.writes") == 10
        assert metrics.counter("runner.store.batched_txns") == 3

    def test_get_reads_its_own_pending_writes(self, tmp_path):
        with SqliteStore(str(tmp_path), batch_size=100) as store:
            (spec,) = fill(store, 1)
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
        assert rows == 2   # superseded generation retained until compact

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


class TestCompaction:
    def test_json_removes_corrupt_stale_and_temp(self, tmp_path):
        metrics = Metrics()
        store = JsonDirStore(str(tmp_path), metrics=metrics).open()
        specs = fill(store, 3)
        stale = spec_for(7)
        store.put(stale, data_for(7), 0.0)
        with open(os.path.join(str(tmp_path), "broken.json"),
                  "w") as stream:
            stream.write("{")
        with open(os.path.join(str(tmp_path), "leftover.tmp"),
                  "w") as stream:
            stream.write("partial")
        stats = store.compact(keep=[s.shard_id for s in specs])
        assert stats.removed_corrupt == 1
        assert stats.removed_stale == 1
        assert stats.removed_superseded == 1   # the .tmp leftover
        assert sorted(os.listdir(tmp_path)) == \
            sorted(s.shard_id + ".json" for s in specs)
        assert store.compacted == stats.removed_total
        assert metrics.counter("runner.store.compacted") == \
            stats.removed_total
        # every kept entry still loads
        for i, spec in enumerate(specs):
            assert store.get(spec).result == data_for(i)

    def test_sqlite_removes_superseded_and_corrupt(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            specs = fill(store, 4)
            store.put(specs[0], data_for(0), 0.0)   # supersede
            store.flush()
            # Corrupt the latest generation of one cell outright.
            store._conn.execute(
                "UPDATE checkpoints SET result = 'garbage' "
                "WHERE shard_id = ?", (specs[1].shard_id,))
            store._conn.commit()
            stats = store.compact(keep=[s.shard_id for s in specs])
            assert stats.removed_superseded == 1
            assert stats.removed_corrupt == 1
            rows = store._conn.execute(
                "SELECT COUNT(*) FROM checkpoints").fetchone()[0]
            assert rows == 3    # 4 cells - 1 corrupt, one generation each
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

    def test_sqlite_file_count_is_o1_vs_on_for_json(self, tmp_path):
        """An N-cell grid is N files under json-dir, O(1) under sqlite."""
        cells = 40
        json_root = tmp_path / "json"
        sqlite_root = tmp_path / "sqlite"
        with JsonDirStore(str(json_root)) as store:
            fill(store, cells)
        assert len(os.listdir(json_root)) == cells
        with SqliteStore(str(sqlite_root)) as store:
            fill(store, cells)
            store.compact()
        assert len(os.listdir(sqlite_root)) <= 3
        # ...and after a clean close the sidecar files are gone too.
        assert sorted(os.listdir(sqlite_root)) == ["checkpoints.sqlite"]

    def test_compact_reclaims_bytes(self, tmp_path):
        with SqliteStore(str(tmp_path)) as store:
            specs = fill(store, 10)
            for spec in specs:            # supersede everything once
                store.put(spec, {"type": "objective", "score": 0.0}, 0.0)
            stats = store.compact()
            assert stats.removed_superseded == 10
            assert stats.bytes_after <= stats.bytes_before


class TestOpenStore:
    def test_factory_backends(self, tmp_path):
        json_store = open_store("json", str(tmp_path / "a"))
        sqlite_store = open_store("sqlite", str(tmp_path / "b"))
        try:
            assert isinstance(json_store, JsonDirStore)
            assert isinstance(sqlite_store, SqliteStore)
            assert json_store.backend == "json"
            assert sqlite_store.backend == "sqlite"
        finally:
            json_store.close()
            sqlite_store.close()

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            open_store("parquet", str(tmp_path))

    def test_canonical_bytes_is_order_insensitive(self):
        a = {"b": 1, "a": [1.5, "x"]}
        b = {"a": [1.5, "x"], "b": 1}
        assert canonical_bytes(a) == canonical_bytes(b)
        assert payload_fingerprint(a) == payload_fingerprint(b)
