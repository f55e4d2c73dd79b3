"""The central registry of every metric name this system can emit.

``--metrics`` output is an interface: people grep it, diff it between
runs, and alert on it.  That only works if the name space is
*enumerable* -- every counter, span and timer that can ever appear in a
:meth:`~repro.observability.Metrics.snapshot` is declared here, with
its kind and one line of documentation.  One enforcement point keeps
the registry honest: a strict :class:`~repro.observability.Metrics`
(the default under the test suite, see ``tests/conftest.py``) raises
:class:`UnregisteredMetricError` for any name not declared here, so a
call site that records an undeclared name fails the first test that
reaches it -- literal, f-string or computed name alike.

The *order* of :data:`METRICS` is the canonical report order: related
names stay grouped in ``--metrics`` output and snapshots diff cleanly
across runs (see :func:`sort_metric_names`).  A trailing ``*`` makes an
entry a prefix family for names with a deterministic but open-ended
component (per-machine timers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "DERIVED_SUFFIXES",
    "MetricSpec",
    "METRICS",
    "UnregisteredMetricError",
    "is_registered",
    "registry_index",
    "sort_metric_names",
]


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric name (or ``*`` prefix family)."""

    name: str
    kind: str          # "counter" | "span" | "timer"
    description: str


#: Every metric the system emits, in canonical report order.
METRICS: Tuple[MetricSpec, ...] = (
    # -- correlator ingestion hot path ---------------------------------
    MetricSpec("correlator.ingest", "span",
               "trace references ingested (rate = ingest throughput)"),
    MetricSpec("correlator.cluster_build", "timer",
               "full clustering passes over the neighbor tables"),
    MetricSpec("correlator.distances_ingested", "counter",
               "pairwise distance observations fed to the store"),
    MetricSpec("correlator.deletions_expired", "counter",
               "pending deletions dropped after the lookback aged out"),
    MetricSpec("distance.pruned_entries", "counter",
               "lookback entries pruned by the M-bounded window"),
    MetricSpec("distance.compensated_pairs", "counter",
               "pairs fed to the dead-compensation rule at age-out"),
    MetricSpec("neighbor.compensations", "counter",
               "distance compensations applied to existing neighbors"),
    MetricSpec("neighbor.rejections", "counter",
               "candidate neighbors rejected by the worst-entry bound"),
    MetricSpec("neighbor.evictions", "counter",
               "neighbors evicted to respect the table size cap"),
    MetricSpec("neighbor.bound_skips", "counter",
               "observations skipped by the incremental bound check"),
    # -- clustering (repro.core.clustering) ----------------------------
    MetricSpec("cluster.counts_computed", "counter",
               "examined-pair shared-neighbor counts computed afresh"),
    MetricSpec("cluster.counts_reused", "counter",
               "examined-pair counts reused from the previous build"),
    # -- parallel experiment runner ------------------------------------
    MetricSpec("runner.shards_total", "counter",
               "grid cells requested for the sweep"),
    MetricSpec("runner.shards_completed", "counter",
               "grid cells computed this run (not from checkpoint)"),
    MetricSpec("runner.shards_from_checkpoint", "counter",
               "grid cells restored from --resume checkpoints"),
    MetricSpec("runner.jobs", "counter",
               "worker processes requested"),
    MetricSpec("runner.pool_utilization_percent", "counter",
               "busy_seconds / (wall * jobs), percent"),
    MetricSpec("runner.completions", "span",
               "shard completion events (rate = grid throughput)"),
    MetricSpec("runner.wall", "timer",
               "wall-clock duration of the whole sweep"),
    MetricSpec("runner.busy", "timer",
               "summed in-worker compute time across shards"),
    MetricSpec("runner.shard.missfree", "timer",
               "per-shard compute time, miss-free simulation cells"),
    MetricSpec("runner.shard.live", "timer",
               "per-shard compute time, live replay cells"),
    MetricSpec("runner.shard.objective", "timer",
               "per-shard compute time, tuning-objective cells"),
    MetricSpec("runner.shard.population", "timer",
               "per-shard compute time, reduced population cells"),
    MetricSpec("runner.machine.*", "timer",
               "per-machine compute time (one timer per trace machine)"),
    # -- checkpoint state store (repro.simulation.store) ---------------
    MetricSpec("runner.store.writes", "counter",
               "checkpoint payloads written through the state store"),
    MetricSpec("runner.store.batched_txns", "counter",
               "transactional batch commits"),
    MetricSpec("runner.store.corrupt_discarded", "counter",
               "checkpoints discarded as corrupt, torn or stale instead "
               "of being silently reused"),
    MetricSpec("runner.store.compacted", "counter",
               "corrupt/stale entries removed by compact()"),
    MetricSpec("runner.store.bytes_on_disk", "counter",
               "bytes the checkpoint store occupies after the sweep"),
    # -- population studies (repro.workload.population) ----------------
    MetricSpec("population.machines", "counter",
               "synthetic machines aggregated into the population report"),
    MetricSpec("population.machines_zero_disconnections", "counter",
               "sampled machines whose profile never disconnects"),
    MetricSpec("population.machines_investigators", "counter",
               "sampled machines running investigators"),
    MetricSpec("population.profiles_clamped", "counter",
               "sampled disconnection triples forced into fit validity"),
    MetricSpec("population.disconnections_replayed", "counter",
               "disconnections replayed across the population's live "
               "passes"),
    MetricSpec("population.disconnections_failed", "counter",
               "replayed disconnections that suffered at least one miss"),
    # -- fault injection -----------------------------------------------
    MetricSpec("faults.injected_total", "counter",
               "all injected fault events, summed across kinds"),
    MetricSpec("faults.fill_interrupted", "counter",
               "hoard fills cut short by a surprise disconnection"),
    MetricSpec("faults.partial_fill_bytes", "counter",
               "bytes left unfetched by interrupted fills"),
    MetricSpec("faults.sync_failures", "counter",
               "synchronize() attempts that failed"),
    MetricSpec("faults.sync_retries", "counter",
               "synchronize() retries under the backoff policy"),
    MetricSpec("faults.backoff_ms", "counter",
               "milliseconds of injected retry backoff"),
    MetricSpec("faults.sync_gave_up", "counter",
               "synchronizations abandoned after exhausting retries"),
    MetricSpec("faults.gossip_dropped", "counter",
               "scheduled reconciliations that never happened"),
    MetricSpec("faults.gossip_duplicated", "counter",
               "reconciliations that ran twice (retransmit)"),
    MetricSpec("faults.gossip_delayed", "counter",
               "reconciliations deferred by injected delay"),
    MetricSpec("faults.reads_failed", "counter",
               "server reads failed during hoard fills / walks"),
    MetricSpec("faults.read_latency_ms", "counter",
               "milliseconds of injected slow-read latency"),
    # -- hoard daemon (repro.service) ------------------------------------
    MetricSpec("service.connections", "counter",
               "client connections accepted by the daemon"),
    MetricSpec("service.connections_dropped", "counter",
               "connections cut by injected server-side faults"),
    MetricSpec("service.batches", "counter",
               "event batches accepted over the wire"),
    MetricSpec("service.events_ingested", "counter",
               "trace references applied to tenant correlators"),
    MetricSpec("service.duplicates_dropped", "counter",
               "redelivered events dropped by the seq dedupe"),
    MetricSpec("service.errors", "counter",
               "protocol errors answered with an error frame"),
    MetricSpec("service.queue_full_waits", "counter",
               "event submissions that blocked on a full tenant inbox"),
    MetricSpec("service.queue_high_water", "counter",
               "deepest tenant inbox observed (monotone high-water mark)"),
    MetricSpec("service.tenants", "counter",
               "tenant actors created over the daemon's lifetime"),
    MetricSpec("service.tenants_restored", "counter",
               "tenant actors restored from a checkpoint store"),
    MetricSpec("service.fill_requests", "counter",
               "hoard_fill requests answered against live state"),
    MetricSpec("service.checkpoints", "counter",
               "tenant checkpoints written to the state store"),
    MetricSpec("service.requests", "span",
               "requests dispatched (rate = request throughput)"),
    MetricSpec("service.request_latency", "timer",
               "request dispatch latency, receipt to reply"),
    MetricSpec("service.drain", "timer",
               "graceful-shutdown drain + checkpoint duration"),
    MetricSpec("service.client_batches", "counter",
               "event batches sent by a ServiceClient"),
    MetricSpec("service.client_reconnects", "counter",
               "client reconnects under the retry policy"),
    MetricSpec("service.client_resends", "counter",
               "unacknowledged requests resent after a reconnect"),
)

#: Suffixes Metrics.snapshot() appends to span/timer base names.
DERIVED_SUFFIXES: Tuple[str, ...] = (
    ".count", ".seconds", ".per_second",
    ".calls", ".total_seconds", ".mean_seconds",
)

_EXACT: Dict[str, int] = {
    spec.name: index for index, spec in enumerate(METRICS)
    if "*" not in spec.name
}
_PREFIXES: Tuple[Tuple[str, int], ...] = tuple(
    (spec.name[:spec.name.index("*")], index)
    for index, spec in enumerate(METRICS) if "*" in spec.name
)


class UnregisteredMetricError(ValueError):
    """A metric name was recorded that the registry does not declare."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"metric name {name!r} is not declared in "
            f"repro.observability.registry; add a MetricSpec so "
            f"--metrics output stays enumerable")
        self.name = name


def _base_name(name: str) -> str:
    """Strip a snapshot-derived suffix, if present."""
    for suffix in DERIVED_SUFFIXES:
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if base:
                return base
    return name


def registry_index(name: str) -> int:
    """Position of *name* in the canonical order, or ``len(METRICS)``.

    Snapshot-derived suffixes (``.calls``, ``.per_second``, ...) are
    stripped before the lookup so derived keys sort with their base
    metric.
    """
    for candidate in (name, _base_name(name)):
        index = _EXACT.get(candidate)
        if index is not None:
            return index
        for prefix, prefix_index in _PREFIXES:
            if candidate.startswith(prefix):
                return prefix_index
    return len(METRICS)


def is_registered(name: str) -> bool:
    """True when *name* (a recording-time base name) is declared."""
    return registry_index(name) < len(METRICS)


def sort_metric_names(names: Sequence[str]) -> List[str]:
    """Registry-canonical ordering for report output.

    Registered names come first in declaration order (derived-suffix
    keys immediately after their base), unregistered names last,
    alphabetically -- so two runs of the same binary always render the
    same metric in the same place and snapshots diff cleanly.
    """
    return sorted(names, key=lambda name: (registry_index(name), name))
