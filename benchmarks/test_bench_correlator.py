"""Reference-ingestion throughput of the correlator hot path.

Three tiers of the same pipeline, slowest to fastest:

* *seed mode* -- the test oracle's unpruned per-entry path
  (``oracle_correlator(prune=False, compensate=False)``): every open
  rescans every file ever seen, exactly the historical behaviour;
* *reference engine* -- the oracle's per-entry dict/object path with
  the lookback bounded by M (``oracle_correlator()``), the oracle the
  equivalence suite compares against;
* *columnar engine* (the shipped ``Correlator``) -- the fused arena
  hot path of :mod:`repro.core.arena`: interned ids, one pass per open
  that computes distances and updates neighbor rows in place.

The committed trajectory requires the columnar engine to ingest at
least ten times faster than seed mode on the full trace
(``min_speedup_vs_seed`` in ``benchmarks/trajectory.json``, up from
the historical 3x bound), and pins absolute throughput at ten times
the seed trajectory's committed minimum; the equivalence suite in
``tests/core/test_equivalence.py`` guarantees the speedup is not
bought with divergent state.

``REPRO_BENCH_SMOKE=1`` shrinks the trace for CI smoke runs; speedup
ratios on the tiny smoke trace are noise, so the trajectory's speedup
bound only applies to non-smoke records.
"""

import os
import random
import time

from benchmarks.perf_record import write_record
from repro.core.correlator import Action, Correlator, ObservedReference
from repro.core.parameters import SeerParameters
from tests.oracle.engine import oracle_correlator

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Events ingested by the columnar and reference engines (full trace).
FAST_EVENTS = 12_000 if SMOKE else 50_000
#: The unpruned seed mode's per-open cost grows with every file ever
#: seen, so it gets a prefix of the same trace; throughput comparisons
#: use rates, not wall-clock totals.  The prefix is long enough that
#: the seed rate reflects a built-up population -- a short prefix
#: flatters the seed mode and understates the speedup.
SLOW_EVENTS = 4_000 if SMOKE else 24_000

PIDS = (1, 2, 3, 4)

#: The ingest benchmark uses a small lookback window so the bounded
#: per-open work (<= M pairs) is clearly separated from the unbounded
#: index scan the seed implementation performed on every open.
BENCH_PARAMETERS = dict(lookback_window=20, compensation_distance=20)


def synthetic_trace(count, seed=1):
    """A deterministic reference stream with a growing file population.

    ~70 % of picks revisit a small hot set, ~30 % touch a brand-new
    file (so the population grows linearly, as a real trace's does);
    the action mix is dominated by point references with opens, closes
    and stats sprinkled in, and every process keeps its set of
    concurrently open files small, as real processes do.
    """
    rng = random.Random(seed)
    recent = ["/seed/s0", "/seed/s1", "/seed/s2", "/seed/s3"]
    open_files = {pid: [] for pid in PIDS}
    events = []
    created = len(recent)
    for seq in range(1, count + 1):
        pid = rng.choice(PIDS)
        if rng.random() < 0.30:
            path = f"/gen/f{created}"
            created += 1
        else:
            path = rng.choice(recent)
        recent.append(path)
        if len(recent) > 8:
            recent.pop(0)
        roll = rng.random()
        if len(open_files[pid]) >= 4:
            action = Action.CLOSE
            path = open_files[pid].pop()
        elif roll < 0.62:
            action = Action.POINT
        elif roll < 0.80:
            action = Action.OPEN
            open_files[pid].append(path)
        elif roll < 0.92 and open_files[pid]:
            action = Action.CLOSE
            path = open_files[pid].pop()
        else:
            action = Action.STAT
        events.append(ObservedReference(
            seq=seq, time=float(seq), pid=pid, action=action,
            path=path, path2="", ppid=0))
    return events


def ingest_rate(events, correlator):
    start = time.perf_counter()
    for reference in events:
        correlator.handle(reference)
    elapsed = time.perf_counter() - start
    return len(events) / elapsed, correlator


def test_ingest_throughput_speedup(output_dir):
    events = synthetic_trace(FAST_EVENTS)
    parameters = SeerParameters(**BENCH_PARAMETERS)

    # Warm-up pass keeps allocator/caching noise out of the comparison.
    ingest_rate(events[:1_000], Correlator(parameters))

    fast_rate, fast = ingest_rate(events, Correlator(parameters))
    reference_rate, reference = ingest_rate(
        events, oracle_correlator(parameters))
    seed_rate, _ = ingest_rate(
        events[:SLOW_EVENTS],
        oracle_correlator(parameters, prune=False, compensate=False))
    speedup_vs_seed = fast_rate / seed_rate
    speedup_vs_reference = fast_rate / reference_rate

    report = [
        "correlator ingest throughput",
        f"  events (full/seed)  : {FAST_EVENTS:,d} / {SLOW_EVENTS:,d}",
        f"  columnar (default)  : {fast_rate:,.0f} refs/sec",
        f"  reference engine    : {reference_rate:,.0f} refs/sec",
        f"  seed mode (unpruned): {seed_rate:,.0f} refs/sec",
        f"  speedup vs seed     : {speedup_vs_seed:.1f}x",
        f"  speedup vs reference: {speedup_vs_reference:.1f}x",
        f"  files tracked       : {len(fast.known_files()):,d}",
        f"  entries pruned      : "
        f"{fast.metrics.counter('distance.pruned_entries'):,d}",
    ]
    with open(os.path.join(output_dir, "correlator_throughput.txt"),
              "w") as handle:
        handle.write("\n".join(report) + "\n")
    print("\n".join(report))
    write_record(output_dir, "correlator_ingest",
                 FAST_EVENTS / fast_rate, FAST_EVENTS,
                 extra={"speedup_vs_seed": round(speedup_vs_seed, 2),
                        "speedup_vs_reference":
                            round(speedup_vs_reference, 2),
                        "reference_throughput_per_second":
                            round(reference_rate, 1),
                        "seed_throughput_per_second": round(seed_rate, 1)})

    assert fast.references_processed == FAST_EVENTS
    # Both engines ingested the same trace; identical state is the
    # equivalence suite's job, but the scoring totals are a one-line
    # smoke check that the benchmark measured comparable work.
    assert fast.metrics.counter("correlator.distances_ingested") == \
        reference.metrics.counter("correlator.distances_ingested")
    # The smoke trace is too short for ratios to be stable; CI's
    # trajectory gate also ignores speedup_vs_seed on smoke records.
    if not SMOKE:
        assert speedup_vs_seed >= 10.0
        assert speedup_vs_reference >= 1.5
        assert reference_rate >= 3.0 * seed_rate


def test_pruned_ingestion_equivalent_on_prefix():
    """Sanity: pruning alone does not change what the store learns."""
    events = synthetic_trace(2_000 if SMOKE else 4_000)
    parameters = SeerParameters(**BENCH_PARAMETERS)
    _, pruned = ingest_rate(
        events, oracle_correlator(parameters, prune=True, compensate=False))
    _, unpruned = ingest_rate(
        events, oracle_correlator(parameters, prune=False, compensate=False))
    assert pruned.store.neighbor_lists() == unpruned.store.neighbor_lists()
    for file in pruned.store.files():
        assert (dict(pruned.store.table(file).items())
                == dict(unpruned.store.table(file).items()))


def test_metrics_capture_pipeline_activity():
    events = synthetic_trace(2_000)
    _, correlator = ingest_rate(events, Correlator(SeerParameters()))
    snapshot = correlator.metrics.snapshot()
    assert snapshot["correlator.ingest.count"] == 2_000
    assert snapshot["correlator.ingest.per_second"] > 0
    assert correlator.metrics.counter("distance.pruned_entries") > 0
