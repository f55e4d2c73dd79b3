"""The differential gate: online session == batch replay, byte for byte.

The daemon must be pure plumbing around the correlator pipeline: for
any event stream, feeding it through a live daemon (real sockets, real
drain tasks, arbitrary wire batching) and asking for a hoard fill must
produce cluster ids and hoard selections *byte-identical* -- under
:func:`~repro.simulation.serde.canonical_bytes` -- to a batch replay of
the same stream through the columnar engine.  A second property covers
the kill/restart path: checkpoint to the PR 6 state store, a fresh
daemon resumes from it, and the result still matches a batch replay
that dump/loads its correlator at the same event index (both sides
shed per-process streams identically).
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlator import ObservedReference
from repro.service.tenant import (
    batch_hoard_fill,
    hoard_fill_payload,
    replay_references,
    restart_batch_seer,
)
from repro.simulation.serde import canonical_bytes
from repro.workload import generate_machine_trace, machine_profile
from repro.observer import Observer

from tests.service.helpers import (
    client_for,
    daemon_on_socket,
    references_from_stream,
    run_async,
    send_in_batches,
)

PIDS = [1, 2, 3]
PATHS = ["/p/a", "/p/b", "/p/c", "/q/d", "/q/e", "/r/f"]

BUDGET = 5_000
SIZES = {path: 100 + 13 * index
         for index, path in enumerate(sorted(PATHS))}


@st.composite
def events(draw):
    kind = draw(st.sampled_from(
        ["open", "open", "open", "point", "point", "close", "stat",
         "exec", "exit", "fork", "delete", "rename"]))
    pid = draw(st.sampled_from(PIDS))
    path = draw(st.sampled_from(PATHS))
    path2 = draw(st.sampled_from(PATHS)) if kind == "rename" else ""
    ppid = draw(st.sampled_from([0] + PIDS)) if kind == "fork" else 0
    return (kind, pid, path, path2, ppid)


streams = st.lists(events(), min_size=1, max_size=120)


async def online_hoard_fill(tmp_path, references, batch_size):
    """One tenant's stream through a real daemon; the fill payload."""
    async with daemon_on_socket(tmp_path) as (daemon, socket_path):
        async with client_for("m1", socket_path) as client:
            await send_in_batches(client, references, batch_size)
            return await client.hoard_fill(BUDGET, sizes=SIZES)


@settings(max_examples=20, deadline=None)
@given(stream=streams, batch_size=st.integers(min_value=1, max_value=40))
def test_online_matches_batch_replay(stream, batch_size):
    references = references_from_stream(stream)
    # A per-example temp dir (hypothesis reuses function-scoped
    # fixtures across examples, so tmp_path is off-limits here).
    with tempfile.TemporaryDirectory() as tmp:
        online = run_async(online_hoard_fill(Path(tmp), references,
                                             batch_size))
    batch = batch_hoard_fill(references, BUDGET, sizes=SIZES)
    assert canonical_bytes(online) == canonical_bytes(batch)
    # The gate covers the cluster ids themselves, not just files.
    assert online["clusters"]["cluster_ids"] == \
        batch["clusters"]["cluster_ids"]


async def online_with_restart(tmp_path, references, cut):
    """First half into daemon A, checkpoint, drain; rest into daemon B."""
    checkpoint_dir = str(tmp_path / "ckpt")
    async with daemon_on_socket(tmp_path, name="a.sock",
                                checkpoint_dir=checkpoint_dir) \
            as (daemon, socket_path):
        async with client_for("m1", socket_path) as client:
            await send_in_batches(client, references[:cut], batch_size=17)
            reply = await client.checkpoint()
            assert reply["last_seq"] == cut
    # daemon A is gone; daemon B resumes from the store.
    async with daemon_on_socket(tmp_path, name="b.sock",
                                checkpoint_dir=checkpoint_dir) \
            as (daemon, socket_path):
        async with client_for("m1", socket_path) as client:
            # Resend an overlapping suffix: at-least-once redelivery
            # across the restart must be absorbed by the seq dedupe.
            overlap = max(0, cut - 9)
            await send_in_batches(client, references[overlap:],
                                  batch_size=23)
            stats = await client.stats()
            assert stats["tenant_stats"]["restored_from_checkpoint"]
            assert stats["tenant_stats"]["last_seq"] == len(references)
            return await client.hoard_fill(BUDGET, sizes=SIZES)


@settings(max_examples=10, deadline=None)
@given(stream=st.lists(events(), min_size=4, max_size=120),
       split=st.floats(min_value=0.2, max_value=0.8))
def test_kill_restart_with_checkpoint_matches_batch(stream, split):
    references = references_from_stream(stream)
    cut = max(1, int(len(references) * split))
    with tempfile.TemporaryDirectory() as tmp:
        online = run_async(online_with_restart(Path(tmp), references, cut))

    # Batch equivalent: replay to the cut, round-trip the tenant Seer
    # through the persistence dump (shedding per-process streams
    # exactly as the daemon's checkpoint does), replay the rest.
    seer = restart_batch_seer(replay_references(references[:cut]))
    replay_references(references[cut:], seer=seer)
    batch = hoard_fill_payload(seer, BUDGET, sizes=SIZES)
    assert canonical_bytes(online) == canonical_bytes(batch)


def test_machine_trace_online_matches_batch(tmp_path):
    """A real generated machine trace, classified by the observer, then
    streamed to the daemon -- the full paper pipeline, online."""
    trace = generate_machine_trace(machine_profile("C"), seed=3, days=2.0)
    collected = []
    observer = Observer(handler=collected.append)
    for record in trace.records:
        observer.handle_record(record)
    # Restamp with the tenant-monotonic wire sequence.
    references = [
        ObservedReference(seq=index, time=r.time, pid=r.pid,
                          action=r.action, path=r.path, path2=r.path2,
                          ppid=r.ppid)
        for index, r in enumerate(collected[:4000], 1)]
    online = run_async(online_hoard_fill(tmp_path, references,
                                         batch_size=256))
    batch = batch_hoard_fill(references, BUDGET, sizes=SIZES)
    assert canonical_bytes(online) == canonical_bytes(batch)
