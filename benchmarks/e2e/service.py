"""``service``: the hoard daemon under an open and then a closed loop.

``python -m repro service --unix-socket`` runs as its own process,
started through ``launch_daemon.py`` so a traced run can wrap the
daemon's functions.  One single-threaded generator holds two
connections; 32 tenants are multiplexed onto them by the ``tenant``
field, tenant *i* always on connection ``i % 2``.

Each tenant's stream is a reference machine trace (machines A-I in
turn, 3 days, trace seed 1) classified by SEER's observer, replayed
from a fixed position (see :class:`Planner`: the seed deals the
streams out to the tenants, so every seed asks the daemon for the same
work).  When a stream runs out it starts again with ``seq`` continued
and times shifted forward, so neither phase runs dry.  Tenants are
taken round-robin; one request in ten of each tenant is a
``hoard_fill`` (budget 2,000,000 bytes, default size 4096; reads), the
others are ``events`` batches of 20 references (writes).

A run plays the same session :data:`SESSIONS` times, each against a
daemon of its own:

0. **Warm-up** (untimed): 8 event batches, then one fill, per tenant.
   A tenant's first fill pays a one-off full clustering build; later
   fills recluster incrementally, so timing starts after it.
1. **Open loop**: 150 requests/s, pipelined, each latency timed from
   when the request was due.  The open loops of a run take about two
   thirds of ``--seconds``.
2. **Closed loop**: about ``400 x --seconds / SESSIONS`` requests with
   8 in flight per connection, then one ``hoard_fill`` per tenant as a
   barrier.

Both loops send whole rounds of the tenants.

``latency_ms`` is the mean open-loop ``hoard_fill`` latency over every
session and ``wall_s`` the median session's closed loop, up to the
last barrier reply.  Both are reference seconds (see ``speed.py``),
converted with the host's speed as the daemon probes it from its event
loop every 0.1 s: the daemon does the work they time.  The fill
latency is a mean because fill latencies fall in two groups (around
1.5 and 8 ms), and the median lands between them.

Oracle: each tenant's barrier fill must equal
:func:`repro.service.tenant.batch_hoard_fill` over the references it
was sent (online == batch).  Error replies and missing replies count
as failures, and so do open loops whose generator sent more than 20 ms
late at p99, over the run's untraced sessions together: their
latencies no longer measure the daemon.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from benchmarks.e2e import loadgen, paper
from benchmarks.e2e.harness import Outcome, RunContext, timed_setup
from benchmarks.e2e.loadgen import PhaseResult, Pipe, Request
from benchmarks.e2e.speed import SpeedLog
from benchmarks.e2e.stats import median, percentile, tail
from benchmarks.e2e.tracer import Tracer
from repro.core.correlator import ObservedReference
from repro.core.parameters import DEFAULT_PARAMETERS
from repro.service import protocol
from repro.service.tenant import batch_hoard_fill
from repro.simulation.serde import canonical_bytes

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "launch_daemon.py")
MACHINES = "ABCDEFGHI"
CONNECTIONS = 2
BATCH = 20
FILL_EVERY = 10        # one request in ten of every tenant is a fill
BUDGET = 2_000_000
DEFAULT_SIZE = 4096
DEPTH = 8              # closed loop: requests in flight per connection
OPEN_SHARE = 2 / 3     # share of --seconds spent in open loops
LATE_LIMIT_MS = 20.0   # generator lateness p99 above this: invalid run
WARMUP_BATCHES = 8     # untimed event batches per tenant before the loops
SESSIONS = 3           # identical sessions per run, each on a new daemon
SETUPS = 3
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


@dataclass(frozen=True)
class Scale:
    tenants: int
    days: float
    open_rate: float     # open loop, requests per second
    closed_rate: float   # closed loops, requests per second of --seconds


# The smoke open loop is fast enough that each tenant sends ten
# requests, and so one fill, in every session.
SCALES = {"full": Scale(32, 3.0, 150.0, 400.0),
          "smoke": Scale(4, 1.0, 180.0, 120.0)}


def tenant_name(index: int) -> str:
    return f"t{index:02d}"


def machine_streams(scale: Scale) -> List[List[ObservedReference]]:
    """Each machine's reference trace as SEER's observer forwards it,
    under the daemon's parameters: the streams the tenants replay."""
    streams = [paper.observed_references(machine, scale.days,
                                         DEFAULT_PARAMETERS)
               for machine in MACHINES[:scale.tenants]]
    for machine, stream in zip(MACHINES, streams):
        if not stream:
            raise RuntimeError(f"machine {machine} observed no references")
    return streams


class Feed:
    """One tenant's stream, repeated with seq continued and time
    shifted; remembers everything sent (the oracle's input)."""

    def __init__(self, stream: List[ObservedReference], start: int) -> None:
        self._stream = stream
        self._cursor = start
        self._shift = 0.0
        self._lap = stream[-1].time - stream[0].time + 3600.0
        self.sent: List[ObservedReference] = []

    def take(self, count: int) -> List[ObservedReference]:
        batch = []
        for _ in range(count):
            original = self._stream[self._cursor]
            batch.append(ObservedReference(
                seq=len(self.sent) + len(batch) + 1,
                time=original.time + self._shift, pid=original.pid,
                action=original.action, path=original.path,
                path2=original.path2, ppid=original.ppid))
            self._cursor += 1
            if self._cursor == len(self._stream):
                self._cursor = 0
                self._shift += self._lap
        self.sent.extend(batch)
        return batch


class Planner:
    """Builds the encoded request frames of one session from the seed.

    The seed must not change how much work the daemon is given, or the
    spread between seeds would measure the inputs.  So every slot is
    fixed -- slot *j* replays machine stream ``j % 9`` from quarter
    ``j // 9`` of it, and its fill is request ``j % 10`` of every ten --
    and the seed only deals the slots out to the tenants, which sets
    each one's connection, daemon shard and turn in the round-robin.
    """

    def __init__(self, seed: int, tenants: int,
                 streams: List[List[ObservedReference]]) -> None:
        rng = random.Random(zlib.crc32(f"requests:{seed}".encode()))
        slots = list(range(tenants))
        rng.shuffle(slots)
        self.feeds = []
        for slot in slots:
            stream = streams[slot % len(streams)]
            quarter = slot // len(streams)
            self.feeds.append(Feed(stream,
                                   quarter * len(stream) // 4 % len(stream)))
        self._fill_turn = [slot % FILL_EVERY for slot in slots]
        self._issued = [0] * tenants
        self._next_id = 1
        self._turn = 0

    def _request(self, tenant: int, kind: str, fields: Dict[str, Any],
                 keep: bool = False) -> Request:
        request_id = self._next_id
        self._next_id += 1
        message = {"type": kind, "v": protocol.PROTOCOL_VERSION,
                   "id": request_id, "tenant": tenant_name(tenant), **fields}
        return Request(request_id, tenant % CONNECTIONS, kind,
                       protocol.encode(message), keep)

    def fill(self, tenant: int, keep: bool = False) -> Request:
        return self._request(tenant, "hoard_fill",
                             {"budget": BUDGET, "default_size": DEFAULT_SIZE},
                             keep)

    def mixed(self, count: int) -> List[Request]:
        requests = []
        for _ in range(count):
            tenant = self._turn % len(self.feeds)
            self._turn += 1
            issued = self._issued[tenant]
            self._issued[tenant] += 1
            if issued % FILL_EVERY == self._fill_turn[tenant]:
                requests.append(self.fill(tenant))
            else:
                requests.append(self._request(tenant, "events", {
                    "records": protocol.references_to_wire(
                        self.feeds[tenant].take(BATCH))}))
        return requests

    def warmup(self) -> List[Request]:
        """Each tenant's first batches and first fill, which pays the
        one-off full clustering build; later fills recluster
        incrementally."""
        tenants = range(len(self.feeds))
        requests = [self._request(tenant, "events", {
            "records": protocol.references_to_wire(
                self.feeds[tenant].take(BATCH))})
            for _ in range(WARMUP_BATCHES) for tenant in tenants]
        return requests + [self.fill(tenant) for tenant in tenants]

    def barrier(self) -> List[Request]:
        return [self.fill(tenant, keep=True)
                for tenant in range(len(self.feeds))]


# ----------------------------------------------------------------------
# the daemon process
# ----------------------------------------------------------------------
class Daemon:
    """``python -m repro service`` via the launcher, stopped on exit.

    Stopping sends SIGTERM, the daemon's own graceful-drain signal; the
    launcher then writes its report (peak RSS, counters and, when
    traced, the daemon-side layer metrics) to a file in *workdir*.
    """

    def __init__(self, workdir: str, traced: bool) -> None:
        self.traced = traced
        path = os.path.join(workdir, "daemon.sock")
        # Unix socket paths are limited to ~100 bytes: prefer relative.
        self.address = min(path, os.path.relpath(path), key=len)
        self._report_path = os.path.join(workdir, "daemon.json")
        self._log_path = os.path.join(workdir, "daemon.log")
        self._process: Optional[subprocess.Popen[bytes]] = None
        self.report: Dict[str, Any] = {}
        self.exit_code: Optional[int] = None

    def __enter__(self) -> "Daemon":
        command = [sys.executable, LAUNCHER, "--unix-socket", self.address,
                   "--report", self._report_path]
        if self.traced:
            command.append("--trace")
        with open(self._log_path, "wb") as log:
            self._process = subprocess.Popen(command, stdout=log,
                                             stderr=subprocess.STDOUT)
        try:
            self._wait_ready()
        except BaseException:
            self._stop()
            raise
        return self

    def _wait_ready(self) -> None:
        assert self._process is not None
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            if self._process.poll() is not None:
                raise RuntimeError(f"daemon exited during start-up: "
                                   f"{self.log_tail()}")
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.address)
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not start listening")
                time.sleep(0.05)
            finally:
                probe.close()

    def _stop(self) -> None:
        process = self._process
        if process is None:
            return
        self._process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.exit_code = process.returncode
        if os.path.exists(self._report_path):
            with open(self._report_path, encoding="utf-8") as stream:
                self.report = json.load(stream)

    def __exit__(self, *exc_info: object) -> None:
        self._stop()

    def log_tail(self) -> str:
        with open(self._log_path, encoding="utf-8", errors="replace") as log:
            return log.read()[-2000:]


# ----------------------------------------------------------------------
# one session: warm-up, open loop, closed loop ending in a barrier
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Plan:
    """The requests of one session; every session of a run sends them."""

    warmup: List[Request]
    opened: List[Request]
    closed: List[Request]     # ends with the barrier
    barrier: List[Request]
    feeds: List[Feed]

    def expected_hoards(self) -> List[Any]:
        """Each tenant's barrier fill as the batch replay computes it."""
        return [batch_hoard_fill(feed.sent, BUDGET, DEFAULT_PARAMETERS,
                                 default_size=DEFAULT_SIZE)
                for feed in self.feeds]


def plan_session(context: RunContext,
                 streams: List[List[ObservedReference]]) -> Plan:
    scale = SCALES[context.scale]
    planner = Planner(context.seed, scale.tenants, streams)
    seconds = context.seconds / SESSIONS

    def rounds(requests: float) -> int:
        # Whole rounds, so every tenant sends as many requests, and as
        # many fills, at every seed.
        return max(1, int(requests / scale.tenants)) * scale.tenants

    warmup = planner.warmup()
    opened = planner.mixed(rounds(scale.open_rate * seconds * OPEN_SHARE))
    closed = planner.mixed(rounds(scale.closed_rate * seconds))
    barrier = planner.barrier()
    return Plan(warmup, opened, closed + barrier, barrier, planner.feeds)


@dataclass
class Session:
    warmup: PhaseResult
    opened: PhaseResult
    closed: PhaseResult
    daemon: Dict[str, Any]
    exit_code: Optional[int]

    @property
    def phases(self) -> List[PhaseResult]:
        return [self.warmup, self.opened, self.closed]

    @property
    def requests(self) -> int:
        return sum(len(phase.samples) + len(phase.missing)
                   for phase in self.phases)

    def closed_events(self) -> int:
        return BATCH * len(self.closed.of_kind("events"))

    def counter(self, name: str) -> float:
        value: float = self.daemon.get("counters", {}).get(name, 0)
        return value


async def _connect(address: str) -> Pipe:
    reader, writer = await asyncio.open_unix_connection(
        address, limit=protocol.MAX_LINE_BYTES)
    writer.write(protocol.encode({"type": "hello", "v": 1, "id": 0,
                                  "tenant": tenant_name(0)}))
    welcome = json.loads(await reader.readline())
    if welcome.get("type") != "welcome":
        writer.close()
        raise RuntimeError(f"daemon refused the handshake: {welcome!r}")
    return Pipe(reader, writer)


async def _drive(address: str, plan: Plan, rate: float) -> List[PhaseResult]:
    pipes = [await _connect(address) for _ in range(CONNECTIONS)]
    try:
        return [await loadgen.closed_loop(pipes, plan.warmup, DEPTH),
                await loadgen.open_loop(pipes, plan.opened, rate),
                await loadgen.closed_loop(pipes, plan.closed, DEPTH)]
    finally:
        for pipe in pipes:
            pipe.writer.close()
        for pipe in pipes:
            try:
                await pipe.writer.wait_closed()
            except ConnectionError:
                pass


def run_session(context: RunContext, plan: Plan, traced: bool) -> Session:
    """*plan* sent to a daemon of its own."""
    workdir = tempfile.mkdtemp(prefix="session-", dir=context.workdir)
    with Daemon(workdir, traced) as daemon:
        phases = asyncio.run(_drive(daemon.address, plan,
                                    SCALES[context.scale].open_rate))
    return Session(*phases, daemon.report, daemon.exit_code)


def check_sessions(outcome: Outcome, sessions: List[Session], plan: Plan,
                   label: str) -> None:
    """The open loops, taken together, kept to their schedule; each
    session passes :func:`check_session`."""
    late_p99 = client_metrics(sessions)["gen.late_ms_p99"]
    outcome.check(late_p99 <= LATE_LIMIT_MS,
                  f"{label}: open loop invalid, the generator sent "
                  f"{late_p99:.1f} ms late at p99")
    expected = plan.expected_hoards()
    for index, session in enumerate(sessions, start=1):
        check_session(outcome, session, plan, expected,
                      f"{label} session {index}")


def check_session(outcome: Outcome, session: Session, plan: Plan,
                  expected: List[Any], label: str) -> None:
    """Every request answered without error; online == batch per
    tenant."""
    for phase in session.phases:
        for sample in phase.samples:
            outcome.check(sample.ok, f"{label}: request "
                          f"{sample.request.request_id} got {sample.reply}")
        for request in phase.missing:
            outcome.check(False, f"{label}: request {request.request_id} "
                          f"({request.kind}) got no reply")
    outcome.check(session.exit_code == 0 and bool(session.daemon),
                  f"{label}: daemon exited with {session.exit_code}")
    replies = {sample.request.request_id: sample.reply
               for sample in session.closed.samples if sample.request.keep}
    for tenant, (request, hoard) in enumerate(zip(plan.barrier, expected)):
        reply = replies.get(request.request_id)
        outcome.check(reply is not None and canonical_bytes(reply.get("hoard"))
                      == canonical_bytes(hoard),
                      f"{label}: tenant {tenant_name(tenant)} online hoard "
                      f"differs from the batch replay")


def generator_view(session: Session) -> str:
    """Each phase as the generator saw it: the share of the phase with
    at least one request outstanding (requests overlap, so the union of
    their intervals counts)."""
    tracer = Tracer()
    names = ("warmup", "open loop", "closed loop")
    for name, phase in zip(names, session.phases):
        phase_id = tracer.record(name, phase.started, phase.finished)
        for sample in phase.samples:
            tracer.record("request", sample.due, sample.done, phase_id)
    stats = tracer.summary()
    lines = [f"{'generator phase':<16} {'requests':>9} {'wall s':>9} "
             f"{'outstanding':>12}"]
    for name, phase in zip(names, session.phases):
        stat = stats[name]
        share = stat.covered / stat.total if stat.total else 0.0
        lines.append(f"{name:<16} {len(phase.samples):>9} {stat.total:>9.3f} "
                     f"{share:>12.1%}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# what the generator measured
# ----------------------------------------------------------------------
def fill_latencies_ms(session: Session) -> Dict[int, float]:
    """Open-loop fill latencies, by request id."""
    return {sample.request.request_id: 1e3 * sample.latency
            for sample in session.opened.of_kind("hoard_fill")}


def client_metrics(sessions: List[Session]) -> Dict[str, float]:
    """What the generator saw of *sessions*, pooled."""
    fills = [latency for session in sessions
             for latency in fill_latencies_ms(session).values()]
    fill_tail = tail(fills)
    late = [1e3 * sample.late for session in sessions
            for sample in session.opened.samples]
    late_p99 = percentile(late, 99.0)
    return {
        "service.events_per_s": sum(s.closed_events() for s in sessions)
        / sum(s.closed.wall for s in sessions),
        "service.ack_p50_ms": median([
            1e3 * sample.latency for session in sessions
            for sample in session.opened.of_kind("events")]),
        "service.fill_tail_ms": fill_tail.value,
        "service.fill_tail_pct": fill_tail.percentile or 0.0,
        "service.fill_samples": fill_tail.samples,
        "gen.late_ms_p99": late_p99,
        "gen.late_ms_max": max(late, default=0.0),
        "gen.open_loop_valid": float(late_p99 <= LATE_LIMIT_MS),
    }


def _describe(outcome: Outcome, sessions: List[Session], label: str) -> None:
    client = client_metrics(sessions)
    fills = [latency for session in sessions
             for latency in fill_latencies_ms(session).values()]
    fill_tail = tail(fills)
    tail_text = (f"p{fill_tail.percentile:g} {fill_tail.value:.2f} ms"
                 if fill_tail.percentile is not None else "no tail")
    outcome.report.append(
        f"{label}: {len(sessions)} sessions of "
        f"{sessions[0].requests} requests; closed loops "
        f"{', '.join(f'{s.closed.wall:.2f}' for s in sessions)} s, "
        f"{client['service.events_per_s']:,.0f} events/s; open loops "
        f"fill p50 {median(fills):.2f} ms, {tail_text} ({fill_tail.samples} "
        f"fills), ack p50 {client['service.ack_p50_ms']:.2f} ms, generator "
        f"late p99 {client['gen.late_ms_p99']:.2f} ms")


# ----------------------------------------------------------------------
# the workload interface
# ----------------------------------------------------------------------
def _plain_sessions(context: RunContext, outcome: Outcome,
                    plan: Plan) -> List[Session]:
    """SESSIONS untraced sessions of *plan*, each checked."""
    sessions = [run_session(context, plan, traced=False)
                for _ in range(SESSIONS)]
    check_sessions(outcome, sessions, plan, "untraced")
    return sessions


def measure(context: RunContext, outcome: Outcome) -> None:
    scale = SCALES[context.scale]
    speed = SpeedLog()
    with speed.sampling():
        plan, setups = timed_setup(
            lambda: plan_session(context, machine_streams(scale)), SETUPS)
    sessions = _plain_sessions(context, outcome, plan)
    _describe(outcome, sessions, "service")
    walls: List[float] = []
    fills: List[float] = []
    slowdowns: List[float] = []
    for session in sessions:
        if not session.daemon:
            continue   # no report: already counted as failed
        daemon_speed = SpeedLog(session.daemon["speed"])
        walls.append(daemon_speed.reference_seconds(session.closed.started,
                                                    session.closed.finished))
        fills += daemon_speed.seconds([
            (sample.due, sample.done)
            for sample in session.opened.of_kind("hoard_fill")])
        slowdowns.append(daemon_speed.slowdown())
    outcome.metrics.update({
        "setup_s": median(speed.seconds(setups)),
        "wall_s": median(walls),
        "latency_ms": 1e3 * statistics.mean(fills),
        "peak_rss_mb": max(s.daemon.get("peak_rss_mb", 0.0)
                           for s in sessions),
    })
    outcome.report.append(
        f"service: closed loops took "
        f"{', '.join(f'{seconds:.2f}' for seconds in walls)} reference s "
        f"(host at {', '.join(f'{s:.2f}' for s in slowdowns)}x the "
        f"reference time)")


def trace(context: RunContext, outcome: Outcome) -> None:
    scale = SCALES[context.scale]
    start = time.perf_counter()
    plan = plan_session(context, machine_streams(scale))
    generate_s = time.perf_counter() - start

    plain = _plain_sessions(context, outcome, plan)
    traced = run_session(context, plan, traced=True)
    check_session(outcome, traced, plan, plan.expected_hoards(), "traced")
    _describe(outcome, plain, "untraced")
    outcome.report.append(generator_view(plain[0]))

    daemon = traced.daemon.get("metrics", {})
    outcome.metrics.update(daemon)
    outcome.metrics.update(client_metrics(plain))
    outcome.metrics.update({
        "workload.generate_s": generate_s,
        "daemon.fill_wait_ms_p50": max(
            0.0, median(list(fill_latencies_ms(traced).values()))
            - daemon.get("tenant.fill_ms_p50", 0.0)),
        "daemon.queue_high_water": max(
            s.counter("service.queue_high_water") for s in plain),
        "daemon.queue_full_waits": sum(
            s.counter("service.queue_full_waits") for s in plain),
        "daemon.errors": sum(s.counter("service.errors") for s in plain),
        "daemon.duplicates_dropped": sum(
            s.counter("service.duplicates_dropped") for s in plain),
        "trace.overhead_ratio": traced.closed.wall
        / median([s.closed.wall for s in plain]) - 1.0,
    })
    outcome.metrics.update(paper.probe(context))
    outcome.report.append("daemon " + traced.daemon.get("stage_table", ""))
    outcome.report.append(paper.table(outcome.metrics))
