"""Open- and closed-loop load over pipelined NDJSON connections.

A :class:`Pipe` is one connection with any number of requests in
flight; replies are matched to requests by their ``id``.  The loops
never build requests: they send pre-encoded frames, so the generator's
own cost stays small and the same from run to run.

* :func:`open_loop` sends on a fixed schedule whatever the server
  does -- independent users.  Each request's latency is timed from
  when it was *due*, so a stall is charged to every request queued
  behind it; how late the generator itself sent is recorded too.
* :func:`closed_loop` keeps a fixed number of requests in flight per
  connection -- callers that each wait for their reply.

A request that gets no reply (the server hung up, or the phase timed
out) is reported as missing.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Request:
    request_id: int
    pipe: int        # index of the connection that carries it
    kind: str
    frame: bytes     # one encoded line, newline included
    keep: bool = False   # keep the decoded reply (oracle inputs)


@dataclass
class Sample:
    request: Request
    due: float
    sent: float
    done: float
    reply: Optional[Dict[str, Any]]   # kept for errors and keep=True
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class PhaseResult:
    samples: List[Sample] = field(default_factory=list)
    missing: List[Request] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    @property
    def wall(self) -> float:
        return self.finished - self.started

    def of_kind(self, kind: str) -> List[Sample]:
        return [s for s in self.samples if s.request.kind == kind]


class Pipe:
    """One connection; replies are matched to requests by id."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.closed = False
        self.on_reply: Optional[Callable[[], None]] = None
        self._inflight: Dict[int, Tuple[Request, float, float]] = {}

    def send(self, request: Request, due: float) -> None:
        self._inflight[request.request_id] = (request, due,
                                              time.perf_counter())
        self.writer.write(request.frame)

    async def collect(self, expected: int, into: PhaseResult) -> None:
        """Read replies until *expected* arrived or the server hung up."""
        received = 0
        while received < expected:
            try:
                line = await self.reader.readline()
            except ConnectionError:
                line = b""
            if not line:
                self.closed = True
                break
            done = time.perf_counter()
            reply = json.loads(line)
            entry = self._inflight.pop(reply.get("id"), None)
            if entry is None:
                continue   # a reply to no request of ours
            request, due, sent = entry
            received += 1
            ok = reply.get("type") != "error"
            into.samples.append(Sample(
                request, due, sent, done,
                reply if (request.keep or not ok) else None, ok))
            if self.on_reply is not None:
                self.on_reply()
        if self.closed and self.on_reply is not None:
            self.on_reply()   # wake a closed-loop sender so it can stop


def _readers(pipes: Sequence[Pipe], requests: Sequence[Request],
             result: PhaseResult) -> List["asyncio.Future[None]"]:
    counts = [0] * len(pipes)
    for request in requests:
        counts[request.pipe] += 1
    return [asyncio.ensure_future(pipe.collect(count, result))
            for pipe, count in zip(pipes, counts)]


async def open_loop(pipes: Sequence[Pipe], requests: Sequence[Request],
                    rate: float, timeout: float = 120.0) -> PhaseResult:
    """Send request *i* at ``start + i / rate`` regardless of replies."""
    result = PhaseResult()
    readers = _readers(pipes, requests, result)
    result.started = start = time.perf_counter()
    for index, request in enumerate(requests):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        pipe = pipes[request.pipe]
        if not pipe.closed:
            pipe.send(request, due)
    await _finish(readers, requests, result, timeout)
    return result


async def closed_loop(pipes: Sequence[Pipe], requests: Sequence[Request],
                      depth: int, timeout: float = 120.0) -> PhaseResult:
    """Keep *depth* requests in flight on every connection; a request is
    due when it is sent."""
    result = PhaseResult()
    windows = [asyncio.Semaphore(depth) for _ in pipes]
    for pipe, window in zip(pipes, windows):
        pipe.on_reply = window.release
    readers = _readers(pipes, requests, result)

    async def send(index: int) -> None:
        pipe, window = pipes[index], windows[index]
        for request in requests:
            if request.pipe != index:
                continue
            await window.acquire()
            if pipe.closed:
                return
            pipe.send(request, time.perf_counter())
            try:
                await pipe.writer.drain()
            except ConnectionError:
                return   # the reader sees the hang-up too

    result.started = time.perf_counter()
    senders = [asyncio.ensure_future(send(index))
               for index in range(len(pipes))]
    try:
        await _finish(senders + readers, requests, result, timeout)
    finally:
        for pipe in pipes:
            pipe.on_reply = None
    return result


async def _finish(tasks: List["asyncio.Future[None]"],
                  requests: Sequence[Request], result: PhaseResult,
                  timeout: float) -> None:
    done, pending = await asyncio.wait(tasks, timeout=timeout)
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)
    for task in done:
        task.result()   # surface a sender's or reader's exception
    result.finished = max((s.done for s in result.samples),
                          default=result.started)
    answered = {sample.request.request_id for sample in result.samples}
    result.missing = [request for request in requests
                      if request.request_id not in answered]
