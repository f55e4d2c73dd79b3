"""The checkpoint store of the experiment runner and the hoard daemon.

Every completed grid cell, and every checkpointed daemon tenant, is
persisted in one ``checkpoints.sqlite`` file keyed by
:attr:`ShardSpec.shard_id`: WAL mode, transactional writes, one row
per shard id, O(1) files on disk for any grid size.  A kill
mid-transaction rolls back cleanly on the next open, and a torn or
truncated database file is quarantined and rebuilt instead of
crashing the sweep.

Every entry carries a schema version and a payload fingerprint
(:func:`repro.simulation.serde.payload_fingerprint`), so corruption is
detected, counted and recomputed -- never silently reused.  The store
keeps four counters (``writes``, ``batched_txns``,
``corrupt_discarded``, ``compacted``) and mirrors them into the
``runner.store.*`` metric family when given a
:class:`~repro.observability.Metrics`.  ``docs/state-store.md`` holds
the crash-safety guarantees; ``tests/simulation/test_store_properties.py``
exercises them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.observability import Metrics
from repro.simulation.serde import payload_fingerprint

if TYPE_CHECKING:
    from repro.simulation.runner import ShardSpec

#: Version of the checkpoint payload schema.  Bump when the payload
#: shape changes; entries recorded under another version are treated
#: as stale and recomputed, never reinterpreted.
SCHEMA_VERSION = 1

#: Entries ``put`` buffers before it commits them in one transaction
#: itself; callers that need an entry durable sooner call ``flush``.
BATCH_SIZE = 32


def spec_to_data(spec: "ShardSpec") -> Dict:
    """JSON-safe dictionary form of a spec (tuples become lists)."""
    data = dataclasses.asdict(spec)
    data["parameter_overrides"] = [
        [name, value] for name, value in spec.parameter_overrides]
    return data


@dataclass
class CheckpointEntry:
    """One validated checkpoint, as the store hands it back."""

    shard_id: str
    spec_data: Dict
    result: Dict
    elapsed_seconds: float
    schema_version: int
    fingerprint: str


@dataclass
class CompactionStats:
    """What one :meth:`SqliteStore.compact` pass removed."""

    removed_corrupt: int = 0
    removed_stale: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def removed_total(self) -> int:
        return self.removed_corrupt + self.removed_stale


class SqliteStore:
    """All checkpoints in one ``checkpoints.sqlite`` file.

    * **WAL mode** -- readers never block the writer, and a kill mid
      transaction is rolled back by sqlite's recovery on the next
      open, so the database is never torn by a crash *it* caused.
    * **Transactional writes** -- ``put`` buffers an entry and
      :meth:`flush` commits everything buffered in one transaction
      (``put`` flushes by itself every :data:`BATCH_SIZE` entries).
      The runner flushes after every cell and the daemon before it
      acknowledges a ``checkpoint``; under ``synchronous=NORMAL`` a
      WAL commit does not fsync.  A crash loses at most what was put
      but not flushed; those cells are simply recomputed on resume,
      and a failed commit is dropped the same way.
    * **One row per shard id** -- a rewritten entry is inserted as
      the next generation and the older generations are deleted in
      the same transaction, so the file holds only what ``get`` can
      return.  :meth:`compact` deletes corrupt rows and stale shard
      ids, then truncates the WAL and VACUUMs.
    * **Torn-file recovery** -- a database file truncated or
      overwritten by outside forces (the torn-write fixture in
      ``tests/simulation/test_store_properties.py``) is quarantined as
      ``<name>.corrupt`` and a fresh store is created: the sweep
      recomputes instead of crashing.
    """

    FILENAME = "checkpoints.sqlite"

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS checkpoints (
            shard_id        TEXT    NOT NULL,
            generation      INTEGER NOT NULL,
            schema_version  INTEGER NOT NULL,
            fingerprint     TEXT    NOT NULL,
            spec            TEXT    NOT NULL,
            elapsed_seconds REAL    NOT NULL,
            result          TEXT    NOT NULL,
            PRIMARY KEY (shard_id, generation)
        )
    """

    _SELECT = ("SELECT shard_id, generation, schema_version, fingerprint,"
               " spec, elapsed_seconds, result FROM checkpoints")

    def __init__(self, root: str, metrics: Optional[Metrics] = None) -> None:
        self.root = root
        self.path = os.path.join(root, self.FILENAME)
        self.metrics = metrics
        self.writes = 0
        self.batched_txns = 0
        self.corrupt_discarded = 0
        self.compacted = 0
        self._conn: Optional[sqlite3.Connection] = None
        self._pending: List[Tuple[str, str, str, float, str]] = []

    # -- lifecycle -----------------------------------------------------
    def open(self) -> "SqliteStore":
        """Open the database under *root*, creating both if needed."""
        os.makedirs(self.root, exist_ok=True)
        try:
            self._connect()
        except sqlite3.DatabaseError:
            self._quarantine()
            self._connect()
        return self

    def __enter__(self) -> "SqliteStore":
        return self.open()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _connect(self) -> None:
        conn = sqlite3.connect(self.path)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(self._SCHEMA)
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        self._conn = conn

    def _quarantine(self) -> None:
        """Move a torn/overwritten database aside and count the loss.

        Every checkpoint it held is gone, but the sweep keeps running:
        resume finds an empty store and recomputes.  The damaged file
        is kept as ``.corrupt`` for post-mortem inspection.
        """
        self._conn = None
        if os.path.exists(self.path):
            os.replace(self.path, self.path + ".corrupt")
        for suffix in ("-wal", "-shm"):
            sidecar = self.path + suffix
            if os.path.exists(sidecar):
                os.unlink(sidecar)
        self._count_corrupt()

    def close(self) -> None:
        if self._conn is not None:
            try:
                self.flush()
            finally:
                self._conn.close()
                self._conn = None

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise RuntimeError("SqliteStore is not open")
        return self._conn

    # -- accounting ----------------------------------------------------
    def _count_write(self) -> None:
        self.writes += 1
        if self.metrics is not None:
            self.metrics.incr("runner.store.writes")

    def _count_txn(self) -> None:
        self.batched_txns += 1
        if self.metrics is not None:
            self.metrics.incr("runner.store.batched_txns")

    def _count_corrupt(self, discarded: int = 1) -> None:
        self.corrupt_discarded += discarded
        if self.metrics is not None:
            self.metrics.incr("runner.store.corrupt_discarded", discarded)

    def _count_compacted(self, removed: int) -> None:
        self.compacted += removed
        if self.metrics is not None:
            self.metrics.incr("runner.store.compacted", removed)

    # -- writes --------------------------------------------------------
    def put(self, spec: "ShardSpec", result_data: Dict,
            elapsed_seconds: float) -> None:
        """Buffer one completed cell (superseding any earlier entry);
        it is durable after the next :meth:`flush`."""
        self._pending.append((
            spec.shard_id,
            payload_fingerprint(result_data),
            json.dumps(spec_to_data(spec), sort_keys=True),
            elapsed_seconds,
            json.dumps(result_data),
        ))
        self._count_write()
        if len(self._pending) >= BATCH_SIZE:
            self.flush()

    def flush(self) -> None:
        """Commit every buffered entry in one transaction.

        The buffer is emptied even when the commit fails: a failed
        batch is lost like one a crash interrupted, and the error
        reaches this caller only, not every later read.
        """
        if not self._pending:
            return
        conn = self._connection()
        try:
            with conn:   # one transaction per batch
                for shard_id, fingerprint, spec_json, elapsed, result in \
                        self._pending:
                    conn.execute(
                        "INSERT INTO checkpoints (shard_id, generation,"
                        " schema_version, fingerprint, spec,"
                        " elapsed_seconds, result)"
                        " VALUES (?, COALESCE((SELECT MAX(generation)"
                        " FROM checkpoints WHERE shard_id = ?), 0) + 1,"
                        " ?, ?, ?, ?, ?)",
                        (shard_id, shard_id, SCHEMA_VERSION, fingerprint,
                         spec_json, elapsed, result))
                    conn.execute(
                        "DELETE FROM checkpoints WHERE shard_id = ?"
                        " AND generation < (SELECT MAX(generation)"
                        " FROM checkpoints WHERE shard_id = ?)",
                        (shard_id, shard_id))
        finally:
            self._pending.clear()
        self._count_txn()

    # -- reads ---------------------------------------------------------
    def _entry_from_row(self, row: Tuple[str, int, int, str, str, float,
                                         str]) -> Optional[CheckpointEntry]:
        shard_id, _, version, fingerprint, spec_json, elapsed, result = row
        try:
            spec_data = json.loads(spec_json)
            result_data = json.loads(result)
        except ValueError:
            self._count_corrupt()
            return None
        return CheckpointEntry(
            shard_id=shard_id, spec_data=spec_data, result=result_data,
            elapsed_seconds=elapsed, schema_version=version,
            fingerprint=fingerprint)

    @staticmethod
    def _trusted(entry: CheckpointEntry,
                 spec: Optional["ShardSpec"]) -> bool:
        """Current schema, payload matching its fingerprint and, when
        *spec* is given, exactly the spec being asked for."""
        return (entry.schema_version == SCHEMA_VERSION
                and isinstance(entry.result, dict)
                and payload_fingerprint(entry.result) == entry.fingerprint
                and (spec is None or entry.spec_data == spec_to_data(spec)))

    def _validate(self, entry: CheckpointEntry,
                  spec: Optional["ShardSpec"]) -> bool:
        """:meth:`_trusted`, counting (not raising on) a failure."""
        if self._trusted(entry, spec):
            return True
        self._count_corrupt()
        return False

    def get(self, spec: "ShardSpec") -> Optional[CheckpointEntry]:
        """Reload one cell, or None if missing or unusable.

        Anything present but unusable counts toward
        :attr:`corrupt_discarded` -- a resumed sweep reports how many
        checkpoints it threw away instead of dropping them silently.
        """
        self.flush()
        try:
            row = self._connection().execute(
                self._SELECT + " WHERE shard_id = ?"
                " ORDER BY generation DESC LIMIT 1",
                (spec.shard_id,)).fetchone()
        except sqlite3.DatabaseError:
            self._quarantine()
            self._connect()
            return None
        if row is None:
            return None
        entry = self._entry_from_row(row)
        if entry is None or not self._validate(entry, spec):
            return None
        return entry

    def iter_completed(self) -> Iterator[CheckpointEntry]:
        """Every valid entry in the store, in shard-id order."""
        self.flush()
        try:
            rows = self._connection().execute(
                self._SELECT + " ORDER BY shard_id").fetchall()
        except sqlite3.DatabaseError:
            self._quarantine()
            self._connect()
            return
        for row in rows:
            entry = self._entry_from_row(row)
            if entry is not None and self._validate(entry, None):
                yield entry

    # -- maintenance ---------------------------------------------------
    def compact(self,
                keep: Optional[Iterable[str]] = None) -> CompactionStats:
        """Garbage-collect corrupt and stale entries.

        *keep*, when given, is the set of shard ids the current grid
        still wants; entries outside it are stale leftovers from a
        differently-shaped sweep and are removed.  After compaction
        every kept entry still loads -- ``--resume`` restores exactly
        the same cells, from less disk.
        """
        self.flush()
        stats = CompactionStats(bytes_before=self.bytes_on_disk())
        conn = self._connection()
        with conn:
            # Rows the read path would refuse.
            bad: List[str] = []
            for row in conn.execute(self._SELECT).fetchall():
                entry = self._entry_from_row(row)
                if entry is None or not self._trusted(entry, None):
                    bad.append(row[0])
            for shard_id in bad:
                conn.execute("DELETE FROM checkpoints WHERE shard_id = ?",
                             (shard_id,))
            stats.removed_corrupt = len(bad)
            if keep is not None:
                wanted = sorted(set(keep))
                before = conn.execute(
                    "SELECT COUNT(DISTINCT shard_id)"
                    " FROM checkpoints").fetchone()[0]
                placeholders = ",".join("?" for _ in wanted) or "''"
                conn.execute(
                    f"DELETE FROM checkpoints WHERE shard_id NOT IN"
                    f" ({placeholders})", wanted)
                after = conn.execute(
                    "SELECT COUNT(DISTINCT shard_id)"
                    " FROM checkpoints").fetchone()[0]
                stats.removed_stale = before - after
        conn.execute("VACUUM")
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        stats.bytes_after = self.bytes_on_disk()
        self._count_compacted(stats.removed_total)
        return stats

    def bytes_on_disk(self) -> int:
        """Bytes the store currently occupies on disk."""
        total = 0
        for path in (self.path, self.path + "-wal", self.path + "-shm"):
            try:
                total += os.path.getsize(path)
            except OSError:
                continue
        return total
