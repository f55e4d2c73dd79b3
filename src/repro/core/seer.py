"""The SEER facade: observer + correlator + clustering + hoard manager.

This is the top-level object a deployment creates.  It attaches to a
simulated kernel's trace stream, digests references continuously, and
on demand (typically just before disconnection, or periodically)
computes clusters and fills the hoard through a replication substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set

from repro.core.clustering import ClusterSet, Relation
from repro.core.correlator import Correlator, ObservedReference
from repro.core.hoard import HoardManager, HoardSelection, MissLog, MissSeverity
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.observer.control_file import ControlConfig
from repro.observer.filters import MeaninglessStrategy
from repro.observer.observer import Observer

if TYPE_CHECKING:   # heavy/cyclic imports used only in annotations
    from repro.investigators.base import Investigator
    from repro.kernel.syscalls import Kernel
    from repro.observability import Metrics
    from repro.replication.base import ReplicationSystem

SizeFunction = Callable[[str], int]


class Seer:
    """A running SEER instance.

    Parameters
    ----------
    kernel:
        The simulated kernel to observe.  SEER registers itself as a
        trace sink; pass ``attach=False`` to drive the observer
        manually (e.g. replaying a saved trace).
    investigators:
        External investigators (section 3.2); each is invoked at
        cluster time and contributes :class:`Relation` groups.
    """

    def __init__(self, kernel: Optional["Kernel"] = None,
                 parameters: SeerParameters = DEFAULT_PARAMETERS,
                 control: Optional[ControlConfig] = None,
                 investigators: Sequence["Investigator"] = (),
                 strategy: MeaninglessStrategy = MeaninglessStrategy.THRESHOLD,
                 attach: bool = True) -> None:
        self.parameters = parameters
        self.correlator = Correlator(parameters)
        self.miss_log = MissLog()
        self._kernel = kernel
        self._investigators = list(investigators)
        self._hoard_manager = HoardManager(parameters)
        self.current_hoard: Optional[HoardSelection] = None
        self._disconnected = False
        # Automated periodic hoard filling (section 2): refill every
        # interval of observed trace time, eliminating even the
        # "disconnection imminent" notification.
        self._refill_interval: Optional[float] = None
        self._refill_budget: int = 0
        self._next_refill: Optional[float] = None
        self.refills_performed = 0
        filesystem = kernel.fs if kernel is not None else None
        process_table = kernel.processes if kernel is not None else None
        self.observer = Observer(
            handler=self._handle_reference, control=control,
            parameters=parameters, filesystem=filesystem, strategy=strategy,
            on_failed_access=self._failed_access, process_table=process_table)
        if kernel is not None and attach:
            kernel.add_sink(self.observer.handle_record)

    # ------------------------------------------------------------------
    # reference handling and periodic refill (section 2)
    # ------------------------------------------------------------------
    def _handle_reference(self, reference: ObservedReference) -> None:
        self.correlator.handle(reference)
        if self._refill_interval is None or self._disconnected:
            return
        if self._next_refill is None:
            # First observed reference starts the refill clock.
            self._next_refill = reference.time + self._refill_interval
            return
        if reference.time >= self._next_refill:
            self._next_refill = reference.time + self._refill_interval
            self.build_hoard(self._refill_budget)
            self.refills_performed += 1

    def enable_periodic_refill(self, interval_seconds: float,
                               budget: int) -> None:
        """Refill the hoard every *interval_seconds* of observed time,
        so the user never needs to announce a disconnection."""
        if interval_seconds <= 0:
            raise ValueError("refill interval must be positive")
        self._refill_interval = interval_seconds
        self._refill_budget = budget

    def disable_periodic_refill(self) -> None:
        self._refill_interval = None

    # ------------------------------------------------------------------
    # connectivity state (for automatic miss detection, section 4.4)
    # ------------------------------------------------------------------
    def disconnect(self) -> None:
        self._disconnected = True

    def reconnect(self) -> None:
        self._disconnected = False

    @property
    def disconnected(self) -> bool:
        return self._disconnected

    def _failed_access(self, path: str, time: float) -> None:
        """A failed access while disconnected to a file SEER knows to
        exist but did not hoard is an automatically detected miss."""
        if not self._disconnected or self.current_hoard is None:
            return
        if path in self.current_hoard:
            return
        if path in self.correlator.known_files():
            self.miss_log.record_automatic(path, time)

    def record_manual_miss(self, path: str, time: float,
                           severity: MissSeverity) -> None:
        """The user-run miss-recording program (section 4.4)."""
        self.miss_log.record_manual(path, time, severity)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> "Metrics":
        """The shared :class:`repro.observability.Metrics` of the
        ingestion pipeline (references/sec, prune and eviction counts,
        cluster-build latency)."""
        return self.correlator.metrics

    def metrics_report(self) -> str:
        """Render the pipeline counters for operators (CLI ``--metrics``)."""
        return self.correlator.metrics.render()

    # ------------------------------------------------------------------
    # clustering and hoarding
    # ------------------------------------------------------------------
    def investigate(self) -> List[Relation]:
        """Run all external investigators, collecting their relations."""
        relations: List[Relation] = []
        for investigator in self._investigators:
            relations.extend(investigator.investigate())
        return relations

    def build_clusters(self, use_directory_distance: bool = True) -> ClusterSet:
        # Frequently-referenced files are eliminated from relationship
        # calculation (section 4.2); they are hoarded unconditionally.
        return self.correlator.build_clusters(
            relations=self.investigate(),
            use_directory_distance=use_directory_distance,
            exclude=self.observer.frequent.frequent_files())

    def always_hoard_paths(self) -> Set[str]:
        paths = set(self.observer.always_hoard_paths())
        # Files whose misses were recorded are hoarded at reconnection.
        paths |= self.miss_log.paths_to_hoard()
        return paths

    def size_function(self, fallback: Optional[SizeFunction] = None) -> SizeFunction:
        """Size lookup backed by the kernel filesystem, with *fallback*
        for files no longer present (section 5.1.2's random sizes)."""
        filesystem = self._kernel.fs if self._kernel is not None else None

        def sizes(path: str) -> int:
            if filesystem is not None:
                try:
                    node = filesystem.stat(path, follow_symlinks=False)
                except Exception:
                    node = None
                if node is not None:
                    return 0 if node.kind.takes_no_space else node.size
            return fallback(path) if fallback is not None else 0

        return sizes

    def build_hoard(self, budget: int,
                    sizes: Optional[SizeFunction] = None,
                    clusters: Optional[ClusterSet] = None) -> HoardSelection:
        """Choose new hoard contents within *budget* bytes (section 2)."""
        if clusters is None:
            clusters = self.build_clusters()
        if sizes is None:
            sizes = self.size_function()
        selection = self._hoard_manager.build(
            clusters, sizes, self.correlator.recency(), budget,
            always_hoard=self.always_hoard_paths())
        self.current_hoard = selection
        return selection

    def fill_replica(self, replication: "ReplicationSystem",
                     budget: int) -> HoardSelection:
        """Build a hoard and hand it to a replication substrate."""
        selection = self.build_hoard(budget)
        replication.set_hoard(selection.files)
        return selection
