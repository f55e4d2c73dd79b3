"""Multi-tenant isolation, scheduling and backpressure.

Tenant isolation is structural (one actor per tenant, nothing shared),
and these tests pin it behaviorally: K tenants streaming interleaved
and concurrently through one daemon must each land on state
byte-identical to K independent single-tenant batch replays.  The
scheduling tests pin the one-drain-task-per-tenant contract: ready
tenants take turns one inbox item at a time, and a checkpoint's disk
write holds up only its own tenant.  The backpressure tests pin the
bounded-inbox contract: a submission beyond the bound blocks (it does
not drop, error, or grow the queue) until the drain task frees a slot,
and the stall is counted.
"""

import asyncio
import threading

from repro.core.correlator import Action, ObservedReference
from repro.service.daemon import HoardDaemon
from repro.service.tenant import EventBatch, batch_hoard_fill
from repro.simulation.serde import canonical_bytes

from tests.service.helpers import (
    client_for,
    daemon_on_socket,
    references_from_stream,
    run_async,
)

BUDGET = 4_000

TENANTS = ["alpha", "beta", "gamma", "delta", "epsilon"]


def stream_for(tenant):
    """A distinct, deterministic event stream per tenant."""
    salt = sum(tenant.encode())
    stream = []
    for index in range(240):
        kind = ["open", "close", "point", "stat", "open",
                "exec"][(index + salt) % 6]
        pid = 1 + (index + salt) % 3
        path = f"/home/{tenant}/f{(index * 7 + salt) % 9}"
        stream.append((kind, pid, path, "", 0))
    return references_from_stream(stream)


async def interleaved_session(tmp_path, concurrent):
    """All tenants through one daemon; returns tenant -> fill payload.

    With ``concurrent=False`` batches are strictly interleaved
    round-robin on one task; with ``concurrent=True`` every tenant
    runs its own client task flat-out and the tenants' drain tasks
    take turns on the daemon's event loop.
    """
    streams = {tenant: stream_for(tenant) for tenant in TENANTS}
    fills = {}
    async with daemon_on_socket(tmp_path) as (daemon, socket_path):
        clients = {tenant: client_for(tenant, socket_path)
                   for tenant in TENANTS}
        for client in clients.values():
            await client.connect()
        try:
            async def drive(tenant):
                references = streams[tenant]
                for start in range(0, len(references), 16):
                    await clients[tenant].send_events(
                        references[start:start + 16], stamp=False)
                fills[tenant] = await clients[tenant].hoard_fill(BUDGET)

            if concurrent:
                await asyncio.gather(*(drive(t) for t in TENANTS))
            else:
                # Round-robin interleave, one batch at a time.
                cursors = {tenant: 0 for tenant in TENANTS}
                while any(cursors[t] < len(streams[t]) for t in TENANTS):
                    for tenant in TENANTS:
                        start = cursors[tenant]
                        if start >= len(streams[tenant]):
                            continue
                        await clients[tenant].send_events(
                            streams[tenant][start:start + 16], stamp=False)
                        cursors[tenant] = start + 16
                for tenant in TENANTS:
                    fills[tenant] = await clients[tenant].hoard_fill(BUDGET)
        finally:
            for client in clients.values():
                await client.close()
    return fills


def assert_each_tenant_matches_solo_replay(fills):
    for tenant in TENANTS:
        solo = batch_hoard_fill(stream_for(tenant), BUDGET)
        assert canonical_bytes(fills[tenant]) == canonical_bytes(solo), \
            f"tenant {tenant} diverged from its solo replay"


def test_interleaved_tenants_match_independent_runs(tmp_path):
    fills = run_async(interleaved_session(tmp_path, concurrent=False))
    assert_each_tenant_matches_solo_replay(fills)


def test_concurrent_tenants_match_independent_runs(tmp_path):
    fills = run_async(interleaved_session(tmp_path, concurrent=True))
    assert_each_tenant_matches_solo_replay(fills)


def test_tenants_share_no_files(tmp_path):
    """Cross-contamination canary: no tenant's hoard may contain
    another tenant's paths (streams use disjoint path spaces)."""
    fills = run_async(interleaved_session(tmp_path, concurrent=True))
    for tenant in TENANTS:
        prefix = f"/home/{tenant}/"
        assert fills[tenant]["files"], f"tenant {tenant} hoarded nothing"
        for path in fills[tenant]["files"]:
            assert path.startswith(prefix)


def _reference(seq):
    return ObservedReference(seq=seq, time=float(seq), pid=1,
                             action=Action.OPEN, path="/x/y")


async def submit_beyond_bound():
    """A submission past the inbox bound blocks until the queue drains."""
    daemon = HoardDaemon(queue_bound=2)
    actor = daemon.actor_for("t")
    # No started server: cancel the tenant's drain task so nothing
    # drains the inbox behind our back.
    daemon._workers[-1].cancel()

    await daemon.submit(actor, EventBatch([_reference(1)]))
    await daemon.submit(actor, EventBatch([_reference(2)]))
    assert daemon.metrics.counter("service.queue_full_waits") == 0

    blocked = asyncio.get_running_loop().create_task(
        daemon.submit(actor, EventBatch([_reference(3)])))
    await asyncio.sleep(0.01)
    assert not blocked.done()            # bounded: the producer stalls
    assert actor.inbox.qsize() == 2      # ...and nothing was dropped
    assert daemon.metrics.counter("service.queue_full_waits") == 1

    actor.inbox.get_nowait()             # a drain frees one slot
    actor.inbox.task_done()
    await asyncio.sleep(0.01)
    assert blocked.done()                # the stalled producer resumed
    assert actor.inbox.qsize() == 2


def test_backpressure_blocks_at_queue_bound():
    run_async(submit_beyond_bound())


#: Two tenant ids with equal ``zlib.crc32(id) % 4``: a four-worker
#: shard pool would serve them from one worker.
SAME_SHARD = ("t0", "t2")


async def ready_tenants_take_turns(tmp_path):
    """Backlogged tenants alternate, one inbox item per turn."""
    order = []
    async with daemon_on_socket(tmp_path) as (daemon, _):
        actors = [daemon.actor_for(tenant) for tenant in SAME_SHARD]
        for actor in actors:
            def logged(batch, actor=actor, apply=actor.apply):
                order.append(actor.tenant)
                return apply(batch)
            actor.apply = logged
        # Below the queue bound submit() never yields, so all six items
        # are queued before either drain task runs.
        for actor in actors:
            for seq in (1, 2, 3):
                await daemon.submit(actor, EventBatch([_reference(seq)]))
        for actor in actors:
            await asyncio.wait_for(actor.inbox.join(), timeout=5)
    return order


def test_ready_tenants_take_turns(tmp_path):
    assert run_async(ready_tenants_take_turns(tmp_path)) == \
        ["t0", "t2"] * 3


async def checkpoint_io_holds_only_its_tenant(tmp_path):
    """A tenant's blocked checkpoint write must not stall another."""
    loop = asyncio.get_running_loop()
    entered = asyncio.Event()
    release = threading.Event()
    async with daemon_on_socket(tmp_path,
                                checkpoint_dir=str(tmp_path / "ckpt")) \
            as (daemon, socket_path):
        first, second = (client_for(tenant, socket_path)
                         for tenant in SAME_SHARD)
        try:
            # One batch each, so both tenants' restore reads are done
            # and the held IO thread below has nothing else to serve.
            for client in (first, second):
                await client.send_events([_reference(1)], stamp=False)
            checkpoint = daemon._checkpoint

            def held_checkpoint(actor):
                loop.call_soon_threadsafe(entered.set)
                release.wait(timeout=10)
                return checkpoint(actor)

            daemon._checkpoint = held_checkpoint
            pending = loop.create_task(first.checkpoint())
            await asyncio.wait_for(entered.wait(), timeout=2)
            fill = await asyncio.wait_for(second.hoard_fill(BUDGET),
                                          timeout=2)
            assert fill["budget"] == BUDGET
            assert not pending.done()
            release.set()
            assert (await pending)["checkpointed"] == "t0"
        finally:
            release.set()
            await first.close()
            await second.close()


def test_checkpoint_io_holds_only_its_tenant(tmp_path):
    run_async(checkpoint_io_holds_only_its_tenant(tmp_path))


async def contended_worker_pool(tmp_path):
    """Every tenant flat-out through tiny inboxes: submissions must
    backpressure (block), never drop, and every tenant must end
    exactly convergent with its solo replay.

    (Each tenant still has exactly one writer -- the wire contract;
    the contention here is tenants racing for the one event loop.)
    """
    fills = {}
    async with daemon_on_socket(tmp_path, queue_bound=2) \
            as (daemon, socket_path):

        async def drive(tenant):
            references = stream_for(tenant)
            async with client_for(tenant, socket_path) as client:
                for start in range(0, len(references), 4):
                    await client.send_events(references[start:start + 4],
                                             stamp=False)
                stats = await client.stats()
                assert stats["tenant_stats"]["events_ingested"] == \
                    len(references)
                fills[tenant] = await client.hoard_fill(BUDGET)

        await asyncio.gather(*(drive(tenant) for tenant in TENANTS))
    return fills


def test_contended_worker_pool_still_matches_batch(tmp_path):
    fills = run_async(contended_worker_pool(tmp_path))
    assert_each_tenant_matches_solo_replay(fills)
