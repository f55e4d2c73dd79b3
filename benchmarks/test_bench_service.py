"""Hoard-daemon load bench: N concurrent clients, latency percentiles.

Drives a real :class:`~repro.service.daemon.HoardDaemon` over TCP on
the loopback with ``N_CLIENTS`` concurrent tenants, each streaming
``EVENTS_PER_CLIENT`` classified references in fixed-size batches and
finishing with a ``hoard_fill``.  Records aggregate ingest throughput
(events/sec across all clients) plus p50/p99 per-request latency as
``BENCH_service.json`` for the trajectory gate, which requires >= 1000
events/sec sustained across >= 50 concurrent clients.

``REPRO_BENCH_SMOKE=1`` shrinks the fleet for CI smoke runs (the
trajectory throughput floor still applies -- a daemon that cannot do
1000 events/sec over 8 clients is broken, not merely slow).
"""

import asyncio
import os
import time

from benchmarks.perf_record import write_record
from repro.core.correlator import Action, ObservedReference
from repro.service.client import ServiceClient
from repro.service.daemon import HoardDaemon

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

N_CLIENTS = 8 if SMOKE else 50
EVENTS_PER_CLIENT = 40 if SMOKE else 400
BATCH_SIZE = 20
BUDGET = 50_000


def stream_for(client_index):
    """A deterministic per-tenant reference stream (distinct paths)."""
    references = []
    for index in range(1, EVENTS_PER_CLIENT + 1):
        kind = (Action.OPEN, Action.CLOSE, Action.POINT,
                Action.STAT)[index % 4]
        path = f"/srv/t{client_index}/f{index % 23}"
        references.append(ObservedReference(
            seq=index, time=float(index), pid=1 + index % 4,
            action=kind, path=path))
    return references


async def drive_client(client_index, port, latencies):
    """One tenant's full session; appends per-request wall latencies."""
    client = ServiceClient(f"tenant-{client_index:03d}", port=port)
    await client.connect()
    try:
        references = stream_for(client_index)
        for start in range(0, len(references), BATCH_SIZE):
            begin = time.perf_counter()
            await client.send_events(references[start:start + BATCH_SIZE],
                                     stamp=False)
            latencies.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        fill = await client.hoard_fill(BUDGET, default_size=512)
        latencies.append(time.perf_counter() - begin)
        assert fill["files"], f"tenant {client_index} hoarded nothing"
    finally:
        await client.close()


async def run_load(daemon):
    await daemon.start(host="127.0.0.1", port=0)
    host, port = daemon.address
    latencies = []
    start = time.perf_counter()
    await asyncio.gather(*(drive_client(index, port, latencies)
                           for index in range(N_CLIENTS)))
    elapsed = time.perf_counter() - start
    await daemon.stop()
    return elapsed, latencies


def percentile(samples, fraction):
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), round(fraction * len(ordered))))
    return ordered[rank - 1]


def test_bench_service_load(benchmark, output_dir):
    daemon = HoardDaemon()

    elapsed, latencies = benchmark.pedantic(
        lambda: asyncio.run(run_load(daemon)), rounds=1, iterations=1)

    total_events = N_CLIENTS * EVENTS_PER_CLIENT
    assert daemon.metrics.counter("service.events_ingested") == total_events
    assert daemon.metrics.counter("service.tenants") == N_CLIENTS

    p50_ms = round(percentile(latencies, 0.50) * 1000, 3)
    p99_ms = round(percentile(latencies, 0.99) * 1000, 3)
    record = write_record(
        output_dir, "service", elapsed, total_events,
        extra={"clients": N_CLIENTS,
               "events_per_client": EVENTS_PER_CLIENT,
               "batch_size": BATCH_SIZE,
               "requests": len(latencies),
               "request_p50_ms": p50_ms,
               "request_p99_ms": p99_ms})
    print(f"service: {record['throughput_per_second']:,.0f} events/s "
          f"aggregate over {N_CLIENTS} clients, "
          f"p50 {p50_ms}ms, p99 {p99_ms}ms")

    if not SMOKE:
        # The acceptance floor, asserted here as well as in the
        # trajectory gate so a local run fails loudly on its own.
        assert N_CLIENTS >= 50
        assert record["throughput_per_second"] >= 1000
