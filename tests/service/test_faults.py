"""Fault convergence: adversity changes nothing once it stops.

Client disconnects mid-batch, duplicated delivery after retry, and
slow reads must all leave tenant state *byte-identical* to the
fault-free run of the same stream.  The daemon's seeded :class:`~repro.faults.
FaultInjector` cuts connections after an event batch is applied but
before its ack -- the worst case for at-least-once delivery, forcing
the client's resend down the dedupe path.
"""

import asyncio
import os

from repro.faults import FaultProfile
from repro.service import protocol
from repro.service.tenant import batch_hoard_fill
from repro.simulation.serde import canonical_bytes

from tests.service.helpers import (
    client_for,
    daemon_on_socket,
    references_from_stream,
    run_async,
    send_in_batches,
)

BUDGET = 6_000

#: Drops roughly one frame in four; seeded, so every run injects the
#: exact same faults at the exact same frames.
DROPPY = FaultProfile(name="lossy", read_failure_probability=0.25)

#: Never drops, always stalls: every frame waits 5ms before dispatch.
SLOW = FaultProfile(name="flaky", read_latency_seconds=0.005)


def stream():
    out = []
    for index in range(360):
        kind = ["open", "close", "point", "open", "stat", "exec"][index % 6]
        out.append((kind, 1 + index % 3, f"/w/f{index % 8}", "", 0))
    return references_from_stream(out)


async def faulty_session(tmp_path, profile, fault_seed, batch_size=12):
    """The whole stream through a faulty daemon; (fill, daemon, client)
    counters for the assertions."""
    async with daemon_on_socket(tmp_path, fault_profile=profile,
                                fault_seed=fault_seed) \
            as (daemon, socket_path):
        async with client_for("m1", socket_path) as client:
            await send_in_batches(client, stream(), batch_size)
            fill = await client.hoard_fill(BUDGET)
            stats = await client.stats()
        counters = dict(daemon.metrics.counters)
    return fill, stats, counters, client


def test_dropped_connections_converge_to_fault_free(tmp_path):
    fill, stats, counters, client = run_async(
        faulty_session(tmp_path, DROPPY, fault_seed=1))
    # The profile really fired...
    assert counters["service.connections_dropped"] > 0
    assert client.reconnects > 0
    # ...yet the final state is byte-identical to the fault-free run.
    fault_free = batch_hoard_fill(stream(), BUDGET)
    assert canonical_bytes(fill) == canonical_bytes(fault_free)
    assert stats["tenant_stats"]["events_ingested"] == len(stream())


def test_duplicated_delivery_after_retry_is_absorbed(tmp_path):
    """Across seeds, drops land on event batches post-apply pre-ack;
    the resends must be deduped, never double-applied."""
    duplicates_seen = 0
    for fault_seed in range(4):
        fill, stats, counters, client = run_async(
            faulty_session(tmp_path, DROPPY, fault_seed=fault_seed))
        duplicates_seen += counters.get("service.duplicates_dropped", 0)
        assert stats["tenant_stats"]["events_ingested"] == len(stream())
        fault_free = batch_hoard_fill(stream(), BUDGET)
        assert canonical_bytes(fill) == canonical_bytes(fault_free)
    # At least one seed must have cut an events frame before its ack
    # (the drop sits after apply, so the resend is a true duplicate).
    assert duplicates_seen > 0


def test_slow_reads_converge_to_fault_free(tmp_path):
    fill, stats, counters, client = run_async(
        faulty_session(tmp_path, SLOW, fault_seed=0, batch_size=60))
    # Latency was injected (accumulated under the faults namespace)...
    assert counters["faults.read_latency_ms"] > 0
    # ...without drops, retries, or any effect on the outcome.
    assert counters.get("service.connections_dropped", 0) == 0
    assert client.reconnects == 0
    fault_free = batch_hoard_fill(stream(), BUDGET)
    assert canonical_bytes(fill) == canonical_bytes(fault_free)


async def disconnect_mid_batch(tmp_path):
    """A client that dies after writing half a frame: the daemon must
    discard the torn line, and a clean resend must converge."""
    references = stream()
    async with daemon_on_socket(tmp_path) as (daemon, socket_path):
        reader, writer = await asyncio.open_unix_connection(socket_path)
        frame = protocol.encode({
            "type": "events", "tenant": "m1", "v": 1,
            "records": protocol.references_to_wire(references[:100])})
        writer.write(frame[:len(frame) // 2])   # half a frame...
        await writer.drain()
        writer.close()                          # ...then vanish
        await writer.wait_closed()

        # A fresh client delivers the full stream from the start.
        async with client_for("m1", socket_path) as client:
            await send_in_batches(client, references, batch_size=50)
            fill = await client.hoard_fill(BUDGET)
            stats = await client.stats()
    assert stats["tenant_stats"]["events_ingested"] == len(references)
    return fill


def test_client_disconnect_mid_batch_leaves_no_partial_state(tmp_path):
    fill = run_async(disconnect_mid_batch(tmp_path))
    fault_free = batch_hoard_fill(stream(), BUDGET)
    assert canonical_bytes(fill) == canonical_bytes(fault_free)


async def explicit_redelivery(tmp_path):
    """Protocol-level at-least-once: the same batch delivered twice is
    acked both times but applied once."""
    references = stream()[:40]
    async with daemon_on_socket(tmp_path) as (daemon, socket_path):
        async with client_for("m1", socket_path) as client:
            first = await client.send_events(references, stamp=False)
            again = await client.send_events(references, stamp=False)
            stats = await client.stats()
    assert first["accepted"] == 40
    assert again["accepted"] == 0
    assert again["duplicates"] == 40
    assert stats["tenant_stats"]["events_ingested"] == 40


def test_explicit_redelivery_is_idempotent(tmp_path):
    run_async(explicit_redelivery(tmp_path))
