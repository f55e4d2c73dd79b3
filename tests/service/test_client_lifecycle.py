"""Connection lifecycle regressions: no leaked sockets, clean unwind.

Pins the PR 10 fixes: a failed handshake must close the just-opened
socket (``connect`` used to leave it dangling and every retry leaked
one), ``close`` must forget the reader/writer pair unconditionally,
and a daemon whose ``start`` fails partway must unwind every resource
it acquired so the caller can retry.
"""

import asyncio
import os

import pytest

from repro.service.client import ServiceClient
from repro.service.daemon import HoardDaemon

from tests.service.helpers import client_for, daemon_on_socket, run_async


async def handshake_refusing_server(socket_path, saw_eof):
    """A server that answers ``hello`` with a non-welcome frame and
    sets *saw_eof* once the client's side of the socket really closes."""

    async def handle(reader, writer):
        await reader.readline()
        writer.write(b'{"type": "unexpected", "v": 1, "id": 1}\n')
        await writer.drain()
        if not await reader.readline():   # b"" == client closed
            saw_eof.set()
        writer.close()

    return await asyncio.start_unix_server(handle, path=socket_path)


async def failed_handshake_closes_the_socket(tmp_path):
    socket_path = os.path.join(str(tmp_path), "bad.sock")
    saw_eof = asyncio.Event()
    server = await handshake_refusing_server(socket_path, saw_eof)
    try:
        client = ServiceClient("t", unix_path=socket_path)
        with pytest.raises(ConnectionError):
            await client.connect()
        # The client forgot the connection...
        assert client._reader is None
        assert client._writer is None
        assert not client.connected
        # ...and the socket was really closed (the server sees EOF,
        # not a dangling half-open connection).
        await asyncio.wait_for(saw_eof.wait(), timeout=5)
    finally:
        server.close()
        await server.wait_closed()


def test_failed_handshake_closes_the_socket(tmp_path):
    run_async(failed_handshake_closes_the_socket(tmp_path))


async def close_is_idempotent_and_forgets_refs(tmp_path):
    async with daemon_on_socket(tmp_path) as (_daemon, socket_path):
        client = client_for("t", socket_path)
        await client.connect()
        assert client.connected
        await client.close()
        assert client._reader is None
        assert client._writer is None
        assert not client.connected
        await client.close()              # second close: no-op
        assert not client.connected
        # The connection is re-establishable after a close.
        await client.connect()
        assert await client.ping()
        await client.close()


def test_close_is_idempotent_and_forgets_refs(tmp_path):
    run_async(close_is_idempotent_and_forgets_refs(tmp_path))


async def close_without_connect_is_a_noop():
    client = ServiceClient("t", unix_path="/nonexistent.sock")
    await client.close()
    assert not client.connected


def test_close_without_connect_is_a_noop():
    run_async(close_without_connect_is_a_noop())


async def failed_start_unwinds_and_allows_retry(tmp_path):
    daemon = HoardDaemon(checkpoint_dir=str(tmp_path / "ckpt"),
                         store_backend="json")
    missing = os.path.join(str(tmp_path), "no", "such", "dir", "s.sock")
    with pytest.raises(OSError):
        await daemon.start(unix_path=missing)
    # Everything acquired before the bind failure was released.
    assert daemon._server is None
    assert daemon._store is None
    assert daemon._io is None
    assert daemon._workers == []
    # The same daemon object can start again on a good path.
    good = os.path.join(str(tmp_path), "svc.sock")
    await daemon.start(unix_path=good)
    try:
        client = client_for("t", good)
        assert await client.ping()
        await client.close()
    finally:
        await daemon.stop()
    assert daemon._io is None
    assert daemon._store is None


def test_failed_start_unwinds_and_allows_retry(tmp_path):
    run_async(failed_start_unwinds_and_allows_retry(tmp_path))
