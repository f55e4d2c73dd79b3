"""A ``checkpoint`` request's reply is a durability promise.

The ``ok`` reply means the tenant's entry is committed to the store,
where a separate reader sees it while the daemon keeps running.  When
the store cannot write, the reply is a ``checkpoint-failed`` error
frame on a connection that stays usable, never a dropped connection
that the client would mistake for an unreachable daemon.  A store that
cannot be read when a new tenant is restored is answered the same way,
with ``restore-failed``.
"""

import contextlib
import errno
import os
import sqlite3
from unittest import mock

import pytest

from repro.service import protocol
from repro.simulation.store import SqliteStore

from tests.service.helpers import (
    client_for,
    daemon_on_socket,
    references_from_stream,
    run_async,
)
from tests.simulation.checkpoints import stored_ids

EVENTS = references_from_stream([("open", 1, "/w/a", "", 0),
                                 ("close", 1, "/w/a", "", 0),
                                 ("open", 1, "/w/b", "", 0)])


async def reply_follows_commit(tmp_path):
    checkpoint_dir = str(tmp_path / "ckpt")
    async with daemon_on_socket(tmp_path, checkpoint_dir=checkpoint_dir) \
            as (daemon, socket_path):
        client = client_for("laptop", socket_path)
        try:
            await client.send_events(EVENTS, stamp=False)
            reply = await client.checkpoint()
            assert reply["checkpointed"] == "laptop"
            # The daemon is still running: only a commit makes the row
            # visible to this second connection.
            assert stored_ids(checkpoint_dir) == \
                [daemon._spec_for("laptop").shard_id]
        finally:
            await client.close()


def test_checkpoint_reply_follows_commit(tmp_path):
    run_async(reply_follows_commit(tmp_path))


async def failed_write_is_an_error_frame(tmp_path):
    async with daemon_on_socket(tmp_path,
                                checkpoint_dir=str(tmp_path / "ckpt")) \
            as (daemon, socket_path):
        client = client_for("laptop", socket_path)
        try:
            await client.send_events(EVENTS, stamp=False)
            full_disk = OSError(errno.ENOSPC, "No space left on device")
            with mock.patch.object(SqliteStore, "put",
                                   side_effect=full_disk):
                with pytest.raises(protocol.ProtocolError) as raised:
                    await client.checkpoint()
            assert raised.value.code == "checkpoint-failed"
            assert client.reconnects == 0
            assert await client.ping()   # same connection, still served
            assert client.reconnects == 0
            assert daemon.metrics.counter("service.errors") == 1
            assert daemon.metrics.counter("service.checkpoints") == 0
        finally:
            await client.close()


def test_failed_checkpoint_write_is_an_error_frame(tmp_path):
    run_async(failed_write_is_an_error_frame(tmp_path))


async def failed_restore_read_is_an_error_frame(tmp_path):
    async with daemon_on_socket(tmp_path,
                                checkpoint_dir=str(tmp_path / "ckpt")) \
            as (daemon, socket_path):
        client = client_for("laptop", socket_path)
        try:
            await client.ping()
            failed_read = sqlite3.OperationalError("disk I/O error")
            with mock.patch.object(SqliteStore, "get",
                                   side_effect=failed_read):
                with pytest.raises(protocol.ProtocolError) as raised:
                    await client.send_events(EVENTS, stamp=False)
            assert raised.value.code == "restore-failed"
            assert client.reconnects == 0
            assert await client.ping()   # same connection, still served
            assert daemon.metrics.counter("service.errors") == 1
            # No actor was registered, so the next request reads the
            # store again, and this time it answers.
            assert daemon.tenants() == []
            reply = await client.send_events(EVENTS, stamp=False)
            assert reply["accepted"] == len(EVENTS)
            assert client.reconnects == 0
        finally:
            await client.close()


def test_failed_restore_read_is_an_error_frame(tmp_path):
    run_async(failed_restore_read_is_an_error_frame(tmp_path))


@contextlib.contextmanager
def failing_commits(checkpoint_dir):
    """Every insert into the store fails, as on a full disk, until the
    block exits; installed from a second connection while the daemon
    runs, so the daemon's own connection is untouched."""
    path = os.path.join(checkpoint_dir, SqliteStore.FILENAME)
    with contextlib.closing(sqlite3.connect(path)) as connection:
        connection.execute(
            "CREATE TRIGGER disk_full BEFORE INSERT ON checkpoints"
            " BEGIN SELECT RAISE(FAIL, 'database or disk is full'); END")
        connection.commit()
        try:
            yield
        finally:
            connection.execute("DROP TRIGGER disk_full")
            connection.commit()


async def failed_commit_is_not_retried(tmp_path):
    checkpoint_dir = str(tmp_path / "ckpt")
    async with daemon_on_socket(tmp_path, checkpoint_dir=checkpoint_dir) \
            as (daemon, socket_path):
        laptop = client_for("laptop", socket_path)
        desktop = client_for("desktop", socket_path)
        try:
            await laptop.send_events(EVENTS, stamp=False)
            with failing_commits(checkpoint_dir):
                with pytest.raises(protocol.ProtocolError) as raised:
                    await laptop.checkpoint()
                assert raised.value.code == "checkpoint-failed"
                # A new tenant's first contact reads the store: the
                # failed entry must not be committed again on its way.
                reply = await desktop.send_events(EVENTS, stamp=False)
                assert reply["accepted"] == len(EVENTS)
                assert desktop.reconnects == 0 and laptop.reconnects == 0
            assert daemon.metrics.counter("service.errors") == 1
            assert daemon.metrics.counter("service.checkpoints") == 0
            assert stored_ids(checkpoint_dir) == []
            await laptop.checkpoint()
            assert stored_ids(checkpoint_dir) == \
                [daemon._spec_for("laptop").shard_id]
        finally:
            await laptop.close()
            await desktop.close()


def test_failed_commit_is_not_retried_by_later_requests(tmp_path):
    run_async(failed_commit_is_not_retried(tmp_path))


async def repeated_checkpoints_keep_one_row(tmp_path):
    checkpoint_dir = str(tmp_path / "ckpt")
    async with daemon_on_socket(tmp_path, checkpoint_dir=checkpoint_dir) \
            as (daemon, socket_path):
        client = client_for("laptop", socket_path)
        try:
            await client.send_events(EVENTS[:2], stamp=False)
            await client.checkpoint()
            await client.send_events(EVENTS[2:], stamp=False)
            assert (await client.checkpoint())["last_seq"] == len(EVENTS)
            # Only the latest state is kept: one row, not one per
            # checkpoint.
            assert stored_ids(checkpoint_dir) == \
                [daemon._spec_for("laptop").shard_id]
        finally:
            await client.close()


def test_repeated_checkpoints_keep_one_row(tmp_path):
    run_async(repeated_checkpoints_keep_one_row(tmp_path))
