"""The SEER facade: observer + correlator + clustering + hoard manager.

This is the top-level object a deployment creates.  It attaches to a
simulated kernel's trace stream, digests references continuously, and
on demand (typically just before disconnection, or periodically)
computes clusters and chooses the hoard's contents.  Moving the chosen
files onto the laptop is the replication system's job (section 2),
which this reproduction does not simulate.
"""

from __future__ import annotations

import weakref
from typing import (TYPE_CHECKING, Any, Callable, List, Optional, Sequence,
                    Set, Tuple)

from repro.core.clustering import ClusterSet, Relation
from repro.core.correlator import Correlator, ObservedReference
from repro.core.hoard import HoardManager, HoardSelection, MissLog, MissSeverity
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.fs import FileSystem, FileSystemError
from repro.observer.control_file import ControlConfig
from repro.observer.filters import MeaninglessStrategy
from repro.observer.observer import Observer

if TYPE_CHECKING:   # heavy/cyclic imports used only in annotations
    from repro.investigators.base import Investigator
    from repro.kernel.syscalls import Kernel
    from repro.observability import Metrics

SizeFunction = Callable[[str], int]


def _weak(method: Callable[..., None]) -> Callable[..., None]:
    """Call bound *method* while its object is alive, without keeping
    the object alive."""
    reference = weakref.WeakMethod(method)

    def call(*args: Any) -> None:
        bound = reference()
        if bound is not None:
            bound(*args)
    return call


class Seer:
    """A running SEER instance.

    Parameters
    ----------
    kernel:
        The simulated kernel to observe.  SEER registers itself as a
        trace sink; pass ``attach=False`` to drive the observer
        manually (e.g. replaying a saved trace).
    investigators:
        External investigators (section 3.2); each contributes
        :class:`Relation` groups at cluster time, rescanning only after
        its filesystem has changed.
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
        self._relations: List[Relation] = []
        self._relations_key: List[Tuple[FileSystem, int]] = []
        self._hoard_manager = HoardManager()
        self.current_hoard: Optional[HoardSelection] = None
        self._disconnected = False
        filesystem = kernel.fs if kernel is not None else None
        process_table = kernel.processes if kernel is not None else None
        correlator = self.correlator

        def handle(reference: ObservedReference) -> None:
            # Looked up per call rather than bound once, so a wrapped
            # Correlator.handle (a traced run's ``correlator`` span)
            # sees every reference.
            correlator.handle(reference)

        # Neither callback holds the Seer: the handler closes over the
        # correlator, which holds nothing of it, and the failed-access
        # callback is weak.  So no cycle holds a finished Seer (and its
        # correlator) until a cyclic collection: reference counting
        # frees it at once.
        self.observer = Observer(
            handler=handle, control=control,
            parameters=parameters, filesystem=filesystem, strategy=strategy,
            on_failed_access=_weak(self._failed_access),
            process_table=process_table)
        if kernel is not None and attach:
            kernel.add_sink(self.observer.handle_record)

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

    # ------------------------------------------------------------------
    # clustering and hoarding
    # ------------------------------------------------------------------
    def investigate(self) -> List[Relation]:
        """All external investigators' relations, in investigator order.

        An investigator's relations are a function of the filesystem
        under its root, so the last scan's relations are kept, keyed by
        each investigator's ``(fs, fs.generation)``; the investigators
        run again (``investigators.scans``) only once a key has moved.
        """
        key = [(investigator.fs, investigator.fs.generation)
               for investigator in self._investigators]
        if key != self._relations_key:
            relations: List[Relation] = []
            for investigator in self._investigators:
                relations.extend(investigator.investigate())
            self._relations, self._relations_key = relations, key
            self.metrics.incr("investigators.scans")
        return list(self._relations)

    def build_clusters(self) -> ClusterSet:
        # Frequently-referenced files are eliminated from relationship
        # calculation (section 4.2); they are hoarded unconditionally.
        return self.correlator.build_clusters(
            relations=self.investigate(),
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
                except FileSystemError:
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
