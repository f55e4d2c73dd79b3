"""Property: the checkpoint store survives kills, torn writes and
mid-transaction crashes, and a resumed sweep always equals the serial
ground truth.

This extends the kill/resume property of ``test_runner_properties.py``
to the store's own failure modes: hypothesis picks which cells a
simulated crash destroyed -- committed rows deleted, an uncommitted
batch rolled back, a WAL smeared with garbage -- and the resume must
recompute exactly the lost cells and nothing else.  A sweep killed in
a child process checks the same for a real kill mid-grid, and a
separate torn-write fixture truncates the database file itself and
asserts quarantine-and-recompute instead of a crash.
"""

import json
import multiprocessing
import os
import shutil
import sqlite3
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation.runner import (
    DAY,
    WEEK,
    RunStats,
    ShardSpec,
    run_shards,
)
from repro.simulation.serde import comparable_data, result_to_data
from repro.simulation.store import SqliteStore

from tests.simulation.checkpoints import delete_rows, tamper_rows

GRID = [
    ShardSpec("missfree", "E", 1, 5.0, window_seconds=DAY),
    ShardSpec("missfree", "E", 1, 5.0, window_seconds=WEEK),
    ShardSpec("live", "E", 1, 5.0),
]


@pytest.fixture(scope="module")
def serial():
    """The serial, storeless ground truth, computed once."""
    outcomes = run_shards(GRID, jobs=1)
    return ([comparable_data(o.result) for o in outcomes],
            [result_to_data(o.result) for o in outcomes])


@pytest.fixture(scope="module")
def baseline(serial):
    return serial[0]


def seeded_store_dir(jobs=1):
    """A checkpoint dir holding one full checkpointed sweep."""
    root = tempfile.mkdtemp(prefix="store-prop-")
    run_shards(GRID, jobs=jobs, checkpoint_dir=root)
    return root


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(jobs=st.integers(min_value=1, max_value=3),
       killed=st.sets(st.integers(min_value=0, max_value=len(GRID) - 1)),
       tampered=st.sets(st.integers(min_value=0, max_value=len(GRID) - 1)),
       smear_wal=st.booleans())
def test_sqlite_kill_and_resume_matches_serial(baseline, jobs, killed,
                                               tampered, smear_wal):
    root = tempfile.mkdtemp(prefix="store-prop-")
    try:
        # 1. A full checkpointed sweep at this worker count matches
        #    the serial storeless path.
        outcomes = run_shards(GRID, jobs=jobs, checkpoint_dir=root)
        assert [comparable_data(o.result) for o in outcomes] == baseline

        # 2. Simulate the crash: some cells' transactions never
        #    committed, some rows were tampered with after the fact
        #    (fingerprint mismatch), and garbage may trail the WAL --
        #    sqlite must ignore frames that fail its checksums.
        tampered = tampered - killed
        delete_rows(root, [GRID[i].shard_id for i in killed])
        tamper_rows(root, [GRID[i].shard_id for i in tampered],
                    json.dumps({"tampered": True}))
        if smear_wal:
            with open(os.path.join(root, SqliteStore.FILENAME) + "-wal",
                      "ab") as stream:
                stream.write(b"\xde\xad\xbe\xef" * 64)

        # 3. Resume recomputes exactly the lost and distrusted cells...
        stats = RunStats()
        resumed = run_shards(GRID, jobs=jobs, checkpoint_dir=root,
                             resume=True, stats=stats)
        assert stats.shards_run == len(killed) + len(tampered)
        assert stats.shards_from_checkpoint == \
            len(GRID) - len(killed) - len(tampered)
        assert stats.corrupt_discarded == len(tampered)

        # 4. ...and still matches the serial ground truth everywhere.
        assert [comparable_data(o.result) for o in resumed] == baseline
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_mid_transaction_kill_loses_only_the_open_batch(baseline):
    """A crash inside a write transaction rolls back cleanly.

    The dying process left an explicit transaction open with every
    cell's row uncommitted; sqlite's recovery must roll it back on the
    next open, and the resume recomputes everything -- no partial
    batch is ever trusted.
    """
    root = seeded_store_dir()
    try:
        path = os.path.join(root, SqliteStore.FILENAME)
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("BEGIN")
        conn.execute("DELETE FROM checkpoints")
        # The deletion is visible inside the transaction...
        assert conn.execute(
            "SELECT COUNT(*) FROM checkpoints").fetchone()[0] == 0
        # ...but the "process" dies before COMMIT.
        conn.close()

        stats = RunStats()
        resumed = run_shards(GRID, jobs=1, checkpoint_dir=root,
                             resume=True, stats=stats)
        # Rollback preserved every committed row: nothing recomputed.
        assert stats.shards_run == 0
        assert stats.shards_from_checkpoint == len(GRID)
        assert [comparable_data(o.result) for o in resumed] == baseline
    finally:
        shutil.rmtree(root, ignore_errors=True)


#: Exit status of a sweep killed by :func:`sweep_killed_after_two_cells`.
KILLED = 86


def sweep_killed_after_two_cells(root):
    """Child-process body: a checkpointed sweep of ``GRID`` that dies
    once its second cell has finished, through ``os._exit``, which
    skips every close, flush and ``finally`` as a kill would."""
    finished = []

    def progress(message):
        finished.append(message)
        if len(finished) == 2:
            os._exit(KILLED)

    run_shards(GRID, jobs=1, checkpoint_dir=root, progress=progress)


def test_sweep_killed_mid_run_keeps_finished_cells(baseline):
    """A sweep hard-killed (SIGKILL, OOM, a CI timeout) mid-grid keeps
    every cell that finished before the kill: each is committed as it
    completes, so resume reruns only the cell that was still running.
    """
    root = tempfile.mkdtemp(prefix="store-prop-")
    try:
        child = multiprocessing.Process(target=sweep_killed_after_two_cells,
                                        args=(root,))
        child.start()
        child.join(timeout=300)
        assert child.exitcode == KILLED

        stats = RunStats()
        resumed = run_shards(GRID, jobs=1, checkpoint_dir=root,
                             resume=True, stats=stats)
        assert stats.shards_from_checkpoint == 2
        assert stats.shards_run == 1
        assert [o.from_checkpoint for o in resumed] == [True, True, False]
        assert [comparable_data(o.result) for o in resumed] == baseline
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_unflushed_batch_is_lost_not_torn(serial):
    """Cells buffered but never flushed simply recompute on resume.

    With ``BATCH_SIZE`` larger than the grid, every ``put`` stays
    buffered in the dying process's memory; the crash (modeled by
    dropping the buffer and the raw connection) must leave an empty
    but *healthy* store behind -- resume recomputes all cells rather
    than crashing or trusting a partial batch.
    """
    baseline, full_data = serial
    root = tempfile.mkdtemp(prefix="store-prop-")
    try:
        store = SqliteStore(root).open()
        for spec, data in zip(GRID, full_data):
            store.put(spec, data, elapsed_seconds=0.0)
        assert store.batched_txns == 0   # nothing committed yet
        store._pending.clear()           # the crash
        store._conn.close()

        stats = RunStats()
        resumed = run_shards(GRID, jobs=1, checkpoint_dir=root,
                             resume=True, stats=stats)
        assert stats.shards_run == len(GRID)
        assert stats.shards_from_checkpoint == 0
        assert stats.corrupt_discarded == 0
        assert [comparable_data(o.result) for o in resumed] == baseline
    finally:
        shutil.rmtree(root, ignore_errors=True)


@pytest.mark.parametrize("torn", ["truncated", "overwritten"])
def test_torn_database_file_recovers_gracefully(baseline, torn):
    """A torn main database file quarantines and recomputes.

    Truncation and garbage overwrite are what an unclean unmount or a
    half-synced copy leave behind; neither may crash the sweep, and
    the damage must be *reported* through ``corrupt_discarded``.
    """
    root = seeded_store_dir()
    try:
        path = os.path.join(root, SqliteStore.FILENAME)
        for suffix in ("-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.unlink(path + suffix)
        if torn == "truncated":
            with open(path, "r+b") as stream:
                stream.truncate(100)
        else:
            with open(path, "wb") as stream:
                stream.write(b"this is not a database\x00" * 40)

        stats = RunStats()
        resumed = run_shards(GRID, jobs=1, checkpoint_dir=root,
                             resume=True, stats=stats)
        assert stats.shards_run == len(GRID)
        assert stats.corrupt_discarded == 1
        assert [comparable_data(o.result) for o in resumed] == baseline
        # The damaged file is preserved for post-mortem inspection.
        assert os.path.exists(path + ".corrupt")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_compact_then_resume_restores_every_cell(baseline):
    """Compaction never costs a cell: after ``compact`` a resume still
    restores the whole grid from one O(1)-file store."""
    root = tempfile.mkdtemp(prefix="store-prop-")
    try:
        run_shards(GRID, jobs=2, checkpoint_dir=root)
        with SqliteStore(root) as store:
            store.compact(keep=[spec.shard_id for spec in GRID])
        assert sorted(os.listdir(root)) == [SqliteStore.FILENAME]
        stats = RunStats()
        resumed = run_shards(GRID, jobs=1, checkpoint_dir=root,
                             resume=True, stats=stats)
        assert stats.shards_run == 0
        assert stats.shards_from_checkpoint == len(GRID)
        assert [comparable_data(o.result) for o in resumed] == baseline
    finally:
        shutil.rmtree(root, ignore_errors=True)
