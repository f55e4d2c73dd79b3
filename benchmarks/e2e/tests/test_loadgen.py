"""Open- and closed-loop accounting against fake NDJSON servers."""

import asyncio
import json

import pytest

from benchmarks.e2e import loadgen
from benchmarks.e2e.loadgen import Pipe, Request

RATE = 100.0          # requests per second
STALL_AT = 10         # request index the server stalls on
STALL_SECONDS = 0.3


def frame(request_id, **fields):
    return (json.dumps({"id": request_id, **fields}) + "\n").encode()


async def serve(path, handle):
    """A unix-socket server answering each line with handle(message)."""
    async def on_connection(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                reply = await handle(json.loads(line))
                if reply is None:
                    break
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
        finally:
            writer.close()
    return await asyncio.start_unix_server(on_connection, path=path)


async def connect(path, count=1):
    pipes = []
    for _ in range(count):
        reader, writer = await asyncio.open_unix_connection(path)
        pipes.append(Pipe(reader, writer))
    return pipes


async def close(server, pipes):
    for pipe in pipes:
        pipe.writer.close()
    server.close()
    await server.wait_closed()


def test_open_loop_charges_a_stall_to_the_requests_behind_it(tmp_path):
    """The server stalls on one request and answers the rest serially.

    The generator must keep sending on schedule, and every request that
    queued behind the stall must have its latency timed from when it was
    due -- not from when the server got round to it.
    """
    path = str(tmp_path / "s.sock")

    async def handle(message):
        if message.get("stall"):
            await asyncio.sleep(STALL_SECONDS)
        return {"id": message["id"], "type": "ok"}

    async def scenario():
        server = await serve(path, handle)
        pipes = await connect(path)
        requests = [Request(i, 0, "events",
                            frame(i, stall=(i == STALL_AT)))
                    for i in range(50)]
        result = await loadgen.open_loop(pipes, requests, RATE)
        await close(server, pipes)
        return result

    result = asyncio.run(scenario())
    assert not result.missing
    by_id = {sample.request.request_id: sample for sample in result.samples}
    assert len(by_id) == 50
    # Open loop: the stall did not hold the generator back.
    assert max(sample.late for sample in result.samples) < 0.05
    # Due times follow the schedule exactly.
    start = by_id[0].due
    for index, sample in by_id.items():
        assert sample.due == pytest.approx(start + index / RATE)
    stalled_until = by_id[STALL_AT].done
    assert by_id[STALL_AT].latency >= STALL_SECONDS
    queued = [i for i in by_id
              if STALL_AT < i and by_id[i].due < stalled_until]
    assert len(queued) >= 20
    for index in queued:
        # Answered only after the stall ended, timed from its due time.
        assert by_id[index].done >= stalled_until
        assert by_id[index].latency == pytest.approx(
            by_id[index].done - start - index / RATE)
        assert by_id[index].latency >= stalled_until - by_id[index].due
    # Requests due after the backlog cleared see ordinary latencies.
    assert by_id[49].latency < STALL_SECONDS / 2


def test_closed_loop_keeps_depth_in_flight_per_connection(tmp_path):
    path = str(tmp_path / "s.sock")
    outstanding = {"now": 0, "max": 0}

    async def handle(message):
        await asyncio.sleep(0.002)
        return {"id": message["id"], "type": "ok"}

    async def scenario():
        server = await serve(path, handle)
        pipes = await connect(path, count=2)
        requests = [Request(i, i % 2, "events", frame(i)) for i in range(200)]

        original_send = Pipe.send

        def counting_send(pipe, request, due):
            outstanding["now"] = len(pipe._inflight) + 1
            outstanding["max"] = max(outstanding["max"], outstanding["now"])
            original_send(pipe, request, due)

        Pipe.send = counting_send
        try:
            result = await loadgen.closed_loop(pipes, requests, depth=4)
        finally:
            Pipe.send = original_send
        await close(server, pipes)
        return result

    result = asyncio.run(scenario())
    assert len(result.samples) == 200 and not result.missing
    assert outstanding["max"] == 4
    assert all(sample.ok for sample in result.samples)
    assert result.wall > 0


def test_hang_up_and_error_replies_are_reported(tmp_path):
    path = str(tmp_path / "s.sock")

    async def handle(message):
        if message["id"] == 5:
            return {"id": 5, "type": "error", "code": "bad-request"}
        if message["id"] >= 8:
            return None   # hang up
        return {"id": message["id"], "type": "ok"}

    async def scenario():
        server = await serve(path, handle)
        pipes = await connect(path)
        requests = [Request(i, 0, "events", frame(i)) for i in range(12)]
        result = await loadgen.closed_loop(pipes, requests, depth=2,
                                           timeout=10.0)
        await close(server, pipes)
        return result

    result = asyncio.run(scenario())
    answered = sorted(sample.request.request_id for sample in result.samples)
    assert answered == list(range(8))
    assert [s.request.request_id for s in result.samples if not s.ok] == [5]
    assert sorted(r.request_id for r in result.missing) == [8, 9, 10, 11]
