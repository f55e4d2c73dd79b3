"""Run ``python -m repro service`` for the service workload.

    python3 benchmarks/e2e/launch_daemon.py --unix-socket PATH \\
        --report FILE [--trace]

Serves exactly as ``python -m repro service --unix-socket PATH`` does,
until SIGTERM, then writes a JSON report to FILE: the process's peak
RSS, the daemon's final counters and either the host's speed, probed
from the daemon's event loop every 0.1 s (see ``speed.py``), or, with
``--trace``, the daemon-side layer metrics and stage table.  Tracing
wraps the program's functions (see ``layers.py``) and times the event
loop's waits in ``select`` as ``daemon.idle``, so the loop's busy share
is measured.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import selectors
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from benchmarks.e2e.tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

ROOT_SPAN = "daemon"
IDLE_SPAN = "daemon.idle"


def _idle_timing_policy(tracer: Tracer) -> asyncio.AbstractEventLoopPolicy:
    class IdleTimedSelector(selectors.DefaultSelector):
        def select(self, timeout=None):
            frame = tracer.begin(IDLE_SPAN)
            try:
                return super().select(timeout)
            finally:
                tracer.end(frame)

    class Policy(asyncio.DefaultEventLoopPolicy):
        def new_event_loop(self) -> asyncio.AbstractEventLoop:
            return asyncio.SelectorEventLoop(IdleTimedSelector())

    return Policy()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--unix-socket", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.e2e import layers
    from benchmarks.e2e.speed import INTERVAL, SpeedLog
    from benchmarks.e2e.tracer import Instrumentation, stage_table
    from repro import cli
    from repro.service import daemon

    # The CLI prints the daemon's final counters only under --metrics;
    # keep the return value of run_service instead.
    counters = {}
    serve = daemon.run_service
    speed = SpeedLog()

    async def run_service(*call_args, **call_kwargs):
        loop = asyncio.get_running_loop()
        probing = None

        def probe():
            nonlocal probing
            speed.sample()
            probing = loop.call_later(INTERVAL, probe)

        if not args.trace:
            probe()
        try:
            result = await serve(*call_args, **call_kwargs)
        finally:
            if probing is not None:
                probing.cancel()
        counters.update(result)
        return result

    daemon.run_service = run_service

    tracer = probe = instrumentation = root = None
    if args.trace:
        tracer = layers.new_tracer(frozenset({ROOT_SPAN}))
        probe = layers.LayerProbe()
        instrumentation = Instrumentation(tracer)
        layers.install(instrumentation, probe)
        asyncio.set_event_loop_policy(_idle_timing_policy(tracer))
        root = tracer.begin(ROOT_SPAN)
    start = time.perf_counter()
    try:
        code = cli.main(["service", "--unix-socket", args.unix_socket])
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            instrumentation.close()

    report = {
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": wall,
        "counters": counters,
        "speed": speed.probes,
    }
    if tracer is not None:
        stats = tracer.summary()
        idle = stats[IDLE_SPAN].total if IDLE_SPAN in stats else 0.0
        covered = sum(stat.self_seconds for stat in stats.values())
        extras = {
            "service.events": counters.get("service.events_ingested", 0.0),
            "recluster.incremental_builds": counters.get(
                "recluster.incremental_builds", 0.0),
            "recluster.full_builds": counters.get(
                "recluster.full_builds", 0.0),
            "daemon.loop_busy_share": 1.0 - idle / wall,
            "trace.stage_coverage": covered / wall,
        }
        report["metrics"] = layers.derive(tracer, probe, extras)
        report["stage_table"] = (
            f"stage table (daemon lifetime {wall:.3f} s)\n"
            + stage_table(stats, wall, layers.ORDER + [ROOT_SPAN, IDLE_SPAN]))
    partial = args.report + ".part"
    with open(partial, "w", encoding="utf-8") as stream:
        json.dump(report, stream)
    os.replace(partial, args.report)
    return code


if __name__ == "__main__":
    sys.exit(main())
