"""The long-lived multi-tenant hoard daemon (``python -m repro service``).

An asyncio server speaking the NDJSON protocol of
:mod:`repro.service.protocol` over TCP or a unix socket.  Concurrency
model (docs/service.md):

* **actor per tenant** -- every tenant owns a :class:`
  ~repro.service.tenant.TenantActor` with a bounded inbox queue; all
  of a tenant's work (event batches, ``hoard_fill``, ``stats``,
  ``checkpoint``) flows through that one queue in arrival order, so
  per-tenant processing is strictly serial and needs no locks;
* **one drain task per tenant** -- each actor's inbox is drained by
  its own task, started when the actor is registered, so exactly one
  task ever touches an actor.  The task yields to the event loop after
  every item, so ready tenants take turns one item at a time, and a
  ``checkpoint``'s disk write holds up only its own tenant;
* **backpressure** -- when a tenant's inbox is at its bound the
  connection handler blocks in ``put()``, which stops reading that
  client's socket; TCP flow control pushes the stall back to the
  producer.  Stalls are counted (``service.queue_full_waits``).

Durability: with a checkpoint directory the daemon persists each
tenant's correlator state in the runner's
:class:`~repro.simulation.store.SqliteStore` -- explicitly on a
``checkpoint`` request, committed before the reply, and for every
tenant during the graceful drain that ``stop()`` performs.  A store
failure on a ``checkpoint`` request is answered with a
``checkpoint-failed`` error; the connection stays open.  A restarted
daemon restores tenants lazily on first contact; a store failure on
that read is answered with a ``restore-failed`` error, and the next
request retries it.

Fault injection: a non-inert :class:`~repro.faults.FaultProfile`
drives server-side adversity -- connections dropped mid-stream (after
an event batch is applied but before its ack, so clients exercise the
at-least-once redelivery path) and slow reads
(``read_latency_seconds`` of real stall per frame).  With no profile
(or ``none``) no random number is ever drawn and behaviour is
identical to a build without injection.
"""

from __future__ import annotations

import asyncio
import sqlite3
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.faults import FaultInjector, FaultProfile, profile_from_name
from repro.observability import Metrics
from repro.service import protocol
from repro.service.tenant import (
    CheckpointRequest,
    EventBatch,
    FillRequest,
    InboxItem,
    StatsRequest,
    TenantActor,
)
from repro.simulation.store import SqliteStore

#: Request latency samples retained for the percentile report.
LATENCY_SAMPLES = 4096

_T = TypeVar("_T")


def _percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (0 for an empty set)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), round(fraction * len(ordered))))
    return ordered[rank - 1]


class HoardDaemon:
    """The serving layer over one ``Seer`` per tenant."""

    def __init__(self, parameters: SeerParameters = DEFAULT_PARAMETERS,
                 queue_bound: int = 1024,
                 checkpoint_dir: Optional[str] = None,
                 resume: bool = True,
                 fault_profile: Union[FaultProfile, str, None] = None,
                 fault_seed: int = 0,
                 metrics: Optional[Metrics] = None) -> None:
        if queue_bound < 1:
            raise ValueError("queue_bound must be >= 1")
        self.parameters = parameters
        self.queue_bound = queue_bound
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.metrics = metrics if metrics is not None else Metrics()
        if isinstance(fault_profile, str):
            fault_profile = profile_from_name(fault_profile)
        self._injector: Optional[FaultInjector] = None
        # A latency-only profile is "inert" for probability draws but
        # still stalls reads, so it gets an injector too.
        if fault_profile is not None and (
                not fault_profile.inert
                or fault_profile.read_latency_seconds > 0):
            self._injector = FaultInjector(fault_profile, seed=fault_seed,
                                           metrics=self.metrics)
        self._fault_profile = fault_profile
        self._actors: Dict[str, TenantActor] = {}
        self._workers: List["asyncio.Task[None]"] = []
        self._connections: Set["asyncio.Task[None]"] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._unix_path: Optional[str] = None
        self._store: Optional[SqliteStore] = None
        # Single-thread executor for every blocking store touch: the
        # sqlite connection has thread affinity (check_same_thread) and
        # does real disk IO, so one dedicated thread keeps the event
        # loop responsive while still serializing store access.  Lint
        # rule RL008 enforces the routing.
        self._io: Optional[ThreadPoolExecutor] = None
        self._latencies: Deque[float] = deque(maxlen=LATENCY_SAMPLES)
        self._queue_high_water = 0
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0,
                    unix_path: Optional[str] = None) -> None:
        """Open the checkpoint store and begin listening.

        A failure partway through (store directory unusable, socket
        already bound) unwinds everything acquired so far -- store, IO
        thread -- so a caller that catches the error holds a daemon
        with no live resources and may retry ``start``.
        """
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._io = ThreadPoolExecutor(max_workers=1,
                                      thread_name_prefix="hoard-io")
        try:
            if self.checkpoint_dir is not None:
                store = SqliteStore(self.checkpoint_dir, metrics=self.metrics)
                self._store = await self._store_call(store.open)
            if unix_path is not None:
                self._unix_path = unix_path
                self._server = await asyncio.start_unix_server(
                    self._on_connection, path=unix_path,
                    limit=protocol.MAX_LINE_BYTES)
            else:
                self._server = await asyncio.start_server(
                    self._on_connection, host=host, port=port,
                    limit=protocol.MAX_LINE_BYTES)
        except BaseException:
            await self._store_call(self._close_store)
            if self._io is not None:
                self._io.shutdown(wait=True)
                self._io = None
            self._unix_path = None
            raise

    @property
    def address(self) -> Union[Tuple[str, int], str, None]:
        """Where the daemon listens: ``(host, port)`` or a socket path."""
        if self._unix_path is not None:
            return self._unix_path
        if self._server is None or not self._server.sockets:
            return None
        name = self._server.sockets[0].getsockname()
        return (name[0], name[1])

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain inboxes, checkpoint.

        With ``drain=False`` queued-but-unapplied events are abandoned
        (clients that never saw an ack will redeliver them to the next
        incarnation, where the seq dedupe applies them once).
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        if drain:
            with self.metrics.timed("service.drain"):
                for tenant in sorted(self._actors):
                    await self._actors[tenant].inbox.join()
                if self._io is not None:
                    await self._store_call(self.checkpoint_all)
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._io is not None:
            await self._store_call(self._close_store)
            self._io.shutdown(wait=True)
            self._io = None
        self._server = None

    # ------------------------------------------------------------------
    # the store IO thread
    # ------------------------------------------------------------------
    async def _store_call(self, fn: Callable[..., _T],
                          *args: Any) -> _T:
        """Run one blocking store operation on the daemon's IO thread.

        All store access from coroutine context funnels through here
        (lint rule RL008 flags any direct call): the handoff keeps the
        event loop free during disk IO, and the one-thread executor
        gives the sqlite connection a stable home thread.
        """
        assert self._io is not None, "daemon is not started"
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._io, partial(fn, *args))

    def _close_store(self) -> None:
        """Blocking flush+close of the store (IO thread only)."""
        store: Optional[SqliteStore] = self._store
        if store is None:
            return
        self._store = None
        store.close()

    # ------------------------------------------------------------------
    # actors and their drain tasks
    # ------------------------------------------------------------------
    def _spec_for(self, tenant: str) -> Any:
        """Checkpoint-store key: a service-kind shard spec carrying the
        daemon's complete parameter set, so a restart under different
        parameters rejects (and recomputes past) the stale state."""
        from repro.simulation.runner import ShardSpec, spec_for_parameters
        spec = ShardSpec(kind="service", machine=tenant, trace_seed=0,
                         days=0.0)
        return spec_for_parameters(spec, self.parameters)

    def _store_entry(self, tenant: str) -> Optional[Any]:
        """Blocking restore-read of a tenant's checkpoint (IO thread).

        Returns the store entry (or None) without touching actor
        state; registration happens back on the event loop.
        """
        if self._store is None or not self.resume:
            return None
        return self._store.get(self._spec_for(tenant))

    def _register_actor(self, tenant: str,
                        entry: Optional[Any]) -> TenantActor:
        """Create a tenant's actor, restoring from *entry* if given,
        and start its drain task."""
        actor = TenantActor(tenant, parameters=self.parameters,
                            queue_bound=self.queue_bound)
        if entry is not None:
            actor.load_state(entry.result)
            self.metrics.incr("service.tenants_restored")
        self._actors[tenant] = actor
        self._workers.append(asyncio.get_running_loop().create_task(
            self._drain(actor), name=f"hoard-tenant-{tenant}"))
        self.metrics.incr("service.tenants")
        return actor

    def actor_for(self, tenant: str) -> TenantActor:
        """Get or lazily create (and maybe restore) a tenant's actor.

        Synchronous variant for embedders and tests driving the daemon
        without a running server (it still needs a running event loop,
        which hosts the actor's drain task); request dispatch uses
        :meth:`_actor_for`, which reads the checkpoint store on the IO
        thread instead of blocking the event loop.
        """
        actor = self._actors.get(tenant)
        if actor is not None:
            return actor
        return self._register_actor(tenant, self._store_entry(tenant))

    async def _actor_for(self, tenant: str) -> TenantActor:
        """Async ``actor_for``: the restore read runs on the IO thread.

        The registry is re-checked after the await -- two connections
        racing to create the same tenant must converge on one actor
        (the loser's restore read is discarded).  A store failure on
        the read becomes a ``restore-failed`` error reply and registers
        no actor, so the tenant's next request reads the store again.
        """
        actor = self._actors.get(tenant)
        if actor is not None:
            return actor
        if self._store is None or not self.resume:
            return self._register_actor(tenant, None)
        try:
            entry = await self._store_call(self._store_entry, tenant)
        except (OSError, sqlite3.Error) as error:
            raise protocol.ProtocolError(
                "restore-failed",
                f"restore of tenant {tenant!r} failed: {error}") from error
        actor = self._actors.get(tenant)
        if actor is not None:
            return actor
        return self._register_actor(tenant, entry)

    def tenants(self) -> List[str]:
        return sorted(self._actors)

    async def submit(self, actor: TenantActor, item: InboxItem) -> None:
        """Enqueue one inbox item, blocking at the queue bound."""
        if actor.inbox.full():
            self.metrics.incr("service.queue_full_waits")
        await actor.inbox.put(item)
        depth = actor.inbox.qsize()
        if depth > self._queue_high_water:
            self.metrics.incr("service.queue_high_water",
                              depth - self._queue_high_water)
            self._queue_high_water = depth

    async def _drain(self, actor: TenantActor) -> None:
        """An actor's drain task: serve its inbox one item per turn."""
        while True:
            item = await actor.inbox.get()
            started = time.perf_counter()
            try:
                await self._process(actor, item)
            finally:
                actor.inbox.task_done()
            actor.busy_seconds += time.perf_counter() - started
            # get() does not yield while items remain, so without this
            # one tenant's backlog would run before any other tenant's.
            await asyncio.sleep(0)

    async def _process(self, actor: TenantActor, item: InboxItem) -> None:
        if isinstance(item, EventBatch):
            before = actor.duplicates_dropped
            applied = actor.apply(item)
            self.metrics.incr("service.events_ingested", applied)
            redelivered = actor.duplicates_dropped - before
            if redelivered:
                self.metrics.incr("service.duplicates_dropped", redelivered)
            return
        future = item.future
        if future.done():
            return   # requester went away (cancelled connection)
        try:
            if isinstance(item, FillRequest):
                self.metrics.incr("service.fill_requests")
                result = actor.hoard_fill(item)
            elif isinstance(item, StatsRequest):
                result = actor.stats()
            else:
                result = await self._store_call(self._checkpoint_request,
                                                actor)
        except Exception as error:   # surfaced to the requester
            if not future.done():
                future.set_exception(error)
            return
        if not future.done():
            future.set_result(result)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _checkpoint(self, actor: TenantActor) -> Dict[str, Any]:
        """Blocking put of one actor's state into the store (IO thread
        when serving); it is on disk after the store's next flush."""
        if self._store is None:
            raise protocol.ProtocolError(
                "no-store", "daemon runs without a checkpoint store "
                "(start it with --checkpoint-dir)")
        self._store.put(self._spec_for(actor.tenant), actor.dump_state(),
                        actor.busy_seconds)
        return {"checkpointed": actor.tenant, "last_seq": actor.last_seq}

    def _checkpoint_request(self, actor: TenantActor) -> Dict[str, Any]:
        """Serve a ``checkpoint`` request (IO thread): persist the
        tenant and commit it, so the reply means the entry is on disk.
        A store failure becomes a ``checkpoint-failed`` error reply."""
        try:
            reply = self._checkpoint(actor)
            if self._store is not None:   # _checkpoint raised otherwise
                self._store.flush()
        except (OSError, sqlite3.Error) as error:
            raise protocol.ProtocolError(
                "checkpoint-failed",
                f"checkpoint of tenant {actor.tenant!r} failed: "
                f"{error}") from error
        self.metrics.incr("service.checkpoints")
        return reply

    def checkpoint_all(self) -> int:
        """Persist every live tenant (the drain path); returns a count.

        Blocking; ``stop`` runs it through :meth:`_store_call`.  Safe
        to call directly on a never-started daemon (no store: no-op).
        """
        if self._store is None or not self._actors:
            return 0
        for tenant in sorted(self._actors):
            self._checkpoint(self._actors[tenant])
        self._store.flush()
        self.metrics.incr("service.checkpoints", len(self._actors))
        return len(self._actors)

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.metrics.incr("service.connections")
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    error = protocol.ProtocolError(
                        "oversized", "frame exceeds the line limit")
                    self.metrics.incr("service.errors")
                    writer.write(protocol.encode(
                        protocol.error_response({}, error)))
                    await writer.drain()
                    break
                if not line:
                    break
                drop = False
                if self._injector is not None:
                    # One decision per frame: cut this connection?  The
                    # cut lands *after* an event batch is applied but
                    # before its ack, so redelivery-after-retry is the
                    # path clients actually exercise.
                    drop = self._injector.read_fails()
                    if not drop and self._fault_profile is not None and \
                            self._fault_profile.read_latency_seconds > 0:
                        await asyncio.sleep(
                            self._fault_profile.read_latency_seconds)
                try:
                    message = protocol.decode_line(line)
                    kind = protocol.validate_request(message)
                except protocol.ProtocolError as error:
                    self.metrics.incr("service.errors")
                    writer.write(protocol.encode(
                        protocol.error_response({}, error)))
                    await writer.drain()
                    continue
                if drop and kind != "events":
                    self.metrics.incr("service.connections_dropped")
                    break
                started = time.perf_counter()
                try:
                    reply = await self._dispatch(kind, message)
                except protocol.ProtocolError as error:
                    self.metrics.incr("service.errors")
                    reply = protocol.error_response(message, error)
                elapsed = time.perf_counter() - started
                self.metrics.mark("service.requests")
                self.metrics.observe("service.request_latency", elapsed)
                self._latencies.append(elapsed)
                if drop:
                    self.metrics.incr("service.connections_dropped")
                    break
                writer.write(protocol.encode(reply))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, kind: str,
                        message: Dict[str, Any]) -> Dict[str, Any]:
        if kind == "ping":
            return protocol.response("pong", message)
        if kind == "hello":
            return protocol.response("welcome", message,
                                     server="repro-hoard-daemon")
        tenant = protocol.validate_tenant(message.get("tenant"))
        actor = await self._actor_for(tenant)
        if kind == "events":
            references = protocol.references_from_wire(
                message.get("records"))
            fresh = actor.dedupe(references)
            redelivered = len(references) - len(fresh)
            if redelivered:
                self.metrics.incr("service.duplicates_dropped", redelivered)
            if fresh:
                await self.submit(actor, EventBatch(fresh))
            self.metrics.incr("service.batches")
            return protocol.response("ok", message, accepted=len(fresh),
                                     duplicates=redelivered)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        if kind == "hoard_fill":
            await self.submit(actor, FillRequest(
                budget=_require_int(message, "budget"),
                sizes=_optional_sizes(message),
                default_size=_optional_int(message, "default_size", 0),
                future=future))
            return protocol.response("hoard", message, hoard=await future)
        if kind == "stats":
            await self.submit(actor, StatsRequest(future=future))
            return protocol.response("stats_result", message,
                                     tenant_stats=await future,
                                     service=self.service_stats())
        if kind == "checkpoint":
            await self.submit(actor, CheckpointRequest(future=future))
            return protocol.response("ok", message, **await future)
        raise protocol.ProtocolError("unknown-type",
                                     f"unhandled request type {kind!r}")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def service_stats(self) -> Dict[str, Any]:
        samples = list(self._latencies)
        return {
            "tenants": len(self._actors),
            "events_ingested": self.metrics.counter(
                "service.events_ingested"),
            "queue_depth_total": sum(
                actor.inbox.qsize() for actor in self._actors.values()),
            "request_p50_ms": round(_percentile(samples, 0.50) * 1000, 3),
            "request_p99_ms": round(_percentile(samples, 0.99) * 1000, 3),
        }

    def combined_counters(self) -> Dict[str, float]:
        """Service-wide counters plus every tenant pipeline's, summed.

        This is the concurrent-absorb path the thread/task-safe
        ``Metrics`` rework exists for: tenant registries are absorbed
        while their actors may still be recording.
        """
        merged = Metrics()
        merged.absorb_counters(self.metrics.snapshot())
        for tenant in sorted(self._actors):
            merged.absorb_counters(
                self._actors[tenant].seer.metrics.snapshot())
        return dict(merged.counters)


# ----------------------------------------------------------------------
# request field validation
# ----------------------------------------------------------------------
def _require_int(message: Dict[str, Any], key: str) -> int:
    value = message.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise protocol.ProtocolError(
            "bad-request", f"{key!r} must be a non-negative integer, "
            f"got {value!r}")
    return value


def _optional_int(message: Dict[str, Any], key: str, default: int) -> int:
    if key not in message:
        return default
    return _require_int(message, key)


def _optional_sizes(message: Dict[str, Any]) -> Optional[Dict[str, int]]:
    sizes = message.get("sizes")
    if sizes is None:
        return None
    if not isinstance(sizes, dict) or not all(
            isinstance(path, str) and isinstance(size, int)
            and not isinstance(size, bool) and size >= 0
            for path, size in sizes.items()):
        raise protocol.ProtocolError(
            "bad-request", "'sizes' must map paths to non-negative "
            "integer byte counts")
    return sizes


# ----------------------------------------------------------------------
# the CLI entry point's long-running body
# ----------------------------------------------------------------------
async def run_service(host: str = "127.0.0.1", port: int = 0,
                      unix_path: Optional[str] = None,
                      queue_bound: int = 1024,
                      checkpoint_dir: Optional[str] = None,
                      resume: bool = True,
                      fault_profile: Optional[str] = None,
                      fault_seed: int = 0,
                      parameters: SeerParameters = DEFAULT_PARAMETERS,
                      max_runtime_seconds: Optional[float] = None
                      ) -> Dict[str, float]:
    """Serve until SIGINT/SIGTERM (or a runtime bound), then drain.

    Returns the final combined counter snapshot so the CLI can honour
    ``--metrics`` after the daemon has already shut down.
    """
    daemon = HoardDaemon(parameters=parameters, queue_bound=queue_bound,
                         checkpoint_dir=checkpoint_dir, resume=resume,
                         fault_profile=fault_profile,
                         fault_seed=fault_seed)
    await daemon.start(host=host, port=port, unix_path=unix_path)
    print(f"hoard daemon listening on {daemon.address} "
          f"(queue bound {queue_bound})",
          file=sys.stderr)
    loop = asyncio.get_running_loop()
    done = asyncio.Event()
    try:
        import signal
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, done.set)
    except (ImportError, NotImplementedError):   # non-unix event loops
        pass
    if max_runtime_seconds is not None:
        loop.call_later(max_runtime_seconds, done.set)
    await done.wait()
    print("hoard daemon draining...", file=sys.stderr)
    await daemon.stop(drain=True)
    return daemon.combined_counters()
