"""The program's layers as the traced run sees them.

:data:`TARGETS` names every function or method a traced run wraps,
with the span it records.  A span name is ``<layer>`` or
``<layer>.<boundary>``; the layer part is the module family of
ROADMAP's pipeline (workload -> observer -> correlator -> cluster ->
hoard -> replay simulations -> runner/store/serde -> analysis, plus the
service's protocol, tenant and daemon).

:func:`derive` turns the resulting span statistics into the
``per_layer`` metrics of ``BENCHMARK.json``.  Metrics a workload
measures itself (generator lateness, pool use, daemon counters) arrive
in *extras* and take precedence; a layer a workload never enters
reports zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional

from benchmarks.e2e.stats import median
from benchmarks.e2e.tracer import (Instrumentation, PostHook, SpanStat, Tracer,
                                   self_seconds_by_layer)

if TYPE_CHECKING:
    from repro.core.clustering import ClusterSet


@dataclass(frozen=True)
class Target:
    span: str
    target: str            # "package.module:Class.method" or ":function"
    individual: bool = False


TARGETS = (
    # workload generation and the simulated kernel
    Target("workload.generate",
           "repro.workload.generator:generate_machine_trace", True),
    Target("kernel.stat", "repro.fs.filesystem:FileSystem.stat"),
    # SEER proper
    Target("observer", "repro.observer.observer:Observer.handle_record"),
    Target("correlator", "repro.core.correlator:Correlator.handle"),
    Target("cluster", "repro.core.correlator:Correlator.build_clusters",
           True),
    Target("investigators", "repro.core.seer:Seer.investigate"),
    Target("hoard.fill", "repro.core.hoard:HoardManager.build"),
    Target("hoard.miss_free", "repro.core.hoard:HoardManager.miss_free_size"),
    # the baselines SEER is scored against
    Target("baselines.lru", "repro.baselines.lru:lru_miss_free_size"),
    Target("baselines.optimal", "repro.baselines.optimal:working_set_size"),
    Target("baselines.spy",
           "repro.baselines.spy_utility:SpyUtilityManager.on_fork"),
    Target("baselines.spy",
           "repro.baselines.spy_utility:SpyUtilityManager.on_exec"),
    Target("baselines.spy",
           "repro.baselines.spy_utility:SpyUtilityManager.on_exit"),
    Target("baselines.spy",
           "repro.baselines.spy_utility:SpyUtilityManager.on_access"),
    Target("baselines.spy",
           "repro.baselines.spy_utility:SpyUtilityManager.miss_free_size"),
    Target("baselines.coda",
           "repro.baselines.coda_priority:CodaPriorityManager.reference"),
    Target("baselines.coda",
           "repro.baselines.coda_priority:CodaPriorityManager.miss_free_size"),
    # replay simulations
    Target("missfree", "repro.simulation.missfree:simulate_miss_free", True),
    Target("live", "repro.simulation.live:simulate_live_usage", True),
    # runner, store, serde
    Target("runner.sweep", "repro.simulation.runner:run_shards", True),
    Target("runner.shard", "repro.simulation.runner:execute_shard", True),
    Target("store.put", "repro.simulation.store:SqliteStore.put", True),
    Target("store.get", "repro.simulation.store:SqliteStore.get", True),
    Target("store.flush", "repro.simulation.store:SqliteStore.flush"),
    Target("serde.encode", "repro.simulation.serde:result_to_data"),
    Target("serde.decode", "repro.simulation.serde:result_from_data"),
    # analysis
    Target("analysis.aggregate",
           "repro.analysis.population:PopulationAggregate.consume"),
    Target("analysis.report",
           "repro.analysis.population:render_population_report"),
    Target("analysis.render", "repro.analysis.figures:render_figure2"),
    # the service
    Target("protocol.decode", "repro.service.protocol:decode_line"),
    Target("protocol.decode", "repro.service.protocol:references_from_wire"),
    Target("protocol.encode", "repro.service.protocol:encode"),
    Target("tenant.apply", "repro.service.tenant:TenantActor.apply"),
    Target("tenant.fill", "repro.service.tenant:TenantActor.hoard_fill",
           True),
)

#: Spans kept one by one (once per window, request or shard).
INDIVIDUAL: FrozenSet[str] = frozenset(
    target.span for target in TARGETS if target.individual)

#: Stage-table order: the pipeline, front to back.
ORDER = list(dict.fromkeys(target.span for target in TARGETS))


class LayerProbe:
    """Per-call facts the spans alone do not carry."""

    def __init__(self) -> None:
        self.cluster_files: List[int] = []

    def after_build(self, clusters: "ClusterSet", *args: object,
                    **kwargs: object) -> None:
        self.cluster_files.append(len(clusters.files()))


def new_tracer(extra_individual: FrozenSet[str] = frozenset()) -> Tracer:
    return Tracer(individual=INDIVIDUAL | extra_individual)


def install(instrumentation: Instrumentation, probe: LayerProbe) -> None:
    """Wrap every target; ``cluster`` also counts the files it clustered."""
    for target in TARGETS:
        post: Optional[PostHook] = (probe.after_build
                                    if target.span == "cluster" else None)
        instrumentation.wrap(target.target, target.span, post)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(tracer: Tracer, probe: LayerProbe,
           extras: Mapping[str, float]) -> Dict[str, float]:
    """Per-layer metrics from one traced pass (see BENCHMARK.json)."""
    stats = tracer.summary()
    empty = SpanStat()

    def stat(name: str) -> SpanStat:
        return stats.get(name, empty)

    layer_self = self_seconds_by_layer(stats)
    observer, correlator = stat("observer"), stat("correlator")
    builds = tracer.durations("cluster")
    events = extras.get("service.events", 0.0)
    protocol_s = stat("protocol.decode").total + stat("protocol.encode").total
    incremental = extras.get("recluster.incremental_builds", 0.0)
    full = extras.get("recluster.full_builds", 0.0)
    metrics = {
        "observer.records": observer.count,
        "observer.self_s": observer.self_seconds,
        "observer.us_per_record": _per(1e6 * observer.self_seconds,
                                       observer.count),
        "observer.pass_ratio": _per(correlator.count, observer.count),
        "correlator.refs": correlator.count,
        "correlator.self_s": correlator.self_seconds,
        "correlator.us_per_ref": _per(1e6 * correlator.self_seconds,
                                      correlator.count),
        "seer.us_per_record": _per(
            1e6 * (observer.self_seconds + correlator.self_seconds),
            observer.count),
        "cluster.builds": len(builds),
        "cluster.self_s": stat("cluster").self_seconds,
        "cluster.ms_per_build_p50": 1e3 * median(builds),
        "cluster.ms_per_build_max": 1e3 * max(builds, default=0.0),
        "cluster.s_per_1k_files": _per(sum(builds),
                                       sum(probe.cluster_files) / 1000.0),
        "cluster.incremental_share": _per(incremental, incremental + full),
        "hoard.calls": (stat("hoard.fill").count
                        + stat("hoard.miss_free").count),
        "hoard.self_s": layer_self.get("hoard", 0.0),
        "baselines.self_s": layer_self.get("baselines", 0.0),
        "investigators.self_s": layer_self.get("investigators", 0.0),
        "missfree.self_s": stat("missfree").self_seconds,
        "live.self_s": stat("live").self_seconds,
        "kernel.stat_calls": stat("kernel.stat").count,
        "kernel.stat_self_s": stat("kernel.stat").self_seconds,
        "store.puts": stat("store.put").count,
        "store.put_ms_p50": 1e3 * median(tracer.durations("store.put")),
        "store.gets": stat("store.get").count,
        "store.get_ms_p50": 1e3 * median(tracer.durations("store.get")),
        "store.flush_s": stat("store.flush").total,
        "serde.self_s": layer_self.get("serde", 0.0),
        "analysis.aggregate_s": stat("analysis.aggregate").total,
        "analysis.report_s": stat("analysis.report").total,
        "analysis.render_s": stat("analysis.render").total,
        "protocol.decode_s": stat("protocol.decode").total,
        "protocol.encode_s": stat("protocol.encode").total,
        "protocol.us_per_event": _per(1e6 * protocol_s, events),
        "tenant.apply_s": stat("tenant.apply").total,
        "tenant.apply_us_per_event": _per(1e6 * stat("tenant.apply").total,
                                          events),
        "tenant.fill_ms_p50": 1e3 * median(tracer.durations("tenant.fill")),
    }
    metrics.update(extras)
    return metrics
