"""The oracle ingest engine and the correlator that runs it.

:class:`ReferenceEngine` implements the correlator's narrow engine
interface (``ensure``/``fork``/``exit``/``open``/``point``/``close``/
``rename``/``forget``) the way the paper states it: one
:class:`~tests.oracle.distance.LifetimeDistanceCalculator` per process
materializes ``(from, to, distance)`` tuples, and each is re-dispatched
through ``NeighborStore.observe`` into per-entry ``DistanceSummary``
objects.  The shipped :class:`~repro.core.arena.ColumnarEngine` must
reach the same state, entry for entry, for any event stream.

:func:`oracle_correlator` builds an ordinary
:class:`~repro.core.correlator.Correlator` and swaps in a
:class:`~tests.oracle.neighbors.NeighborStore`, this engine and the
path-keyed clustering pass
(:class:`~tests.oracle.clustering.OracleClustering`), so event
sequencing, recency and delayed deletion stay the production code
under test.  ``prune=False, compensate=False`` is the historical
"seed mode": the unbounded per-open scan that drops over-window pairs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.correlator import Correlator
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.observability import Metrics
from tests.oracle.clustering import OracleClustering
from tests.oracle.distance import LifetimeDistanceCalculator
from tests.oracle.neighbors import NeighborStore


class ReferenceEngine:
    """Per-pid calculators over a NeighborStore, at per-entry cost."""

    def __init__(self, store: NeighborStore, parameters: SeerParameters,
                 metrics: Metrics, prune: bool = True,
                 compensate: bool = True) -> None:
        self._store = store
        self._parameters = parameters
        self._metrics = metrics
        self._prune = prune
        self._compensate = compensate
        self._calculators: Dict[int, LifetimeDistanceCalculator] = {}

    def _new_calculator(self) -> LifetimeDistanceCalculator:
        return LifetimeDistanceCalculator(
            lookback_window=self._parameters.lookback_window,
            prune=self._prune, compensate=self._compensate,
            metrics=self._metrics)

    def _calculator(self, pid: int) -> LifetimeDistanceCalculator:
        calculator = self._calculators.get(pid)
        if calculator is None:
            calculator = self._calculators[pid] = self._new_calculator()
        return calculator

    def ensure(self, pid: int) -> None:
        self._calculator(pid)

    def fork(self, pid: int, ppid: int) -> int:
        if ppid:
            calculator = self._calculator(ppid).clone()
        else:
            calculator = self._new_calculator()
        self._calculators[pid] = calculator
        return calculator.opens_processed

    def exit(self, pid: int, merge_ppid: int, since: int) -> None:
        calculator = self._calculators.pop(pid, None)
        if calculator is None or not merge_ppid:
            return
        parent = self._calculators.get(merge_ppid)
        if parent is not None:
            parent.merge_from(calculator, since=since)

    def open(self, pid: int, path: str, now: int) -> None:
        self._ingest(self._calculator(pid).open(path), now)

    def point(self, pid: int, path: str, now: int) -> None:
        self._ingest(self._calculator(pid).point_reference(path), now)

    def close(self, pid: int, path: str) -> None:
        self._calculator(pid).close(path)

    def rename(self, old: str, new: str) -> None:
        for calculator in self._calculators.values():
            calculator.rename(old, new)

    def forget(self, path: str) -> None:
        for calculator in self._calculators.values():
            calculator.forget(path)

    def _ingest(self, distances: List[Tuple[str, str, int]], now: int) -> None:
        if distances:
            self._metrics.incr("correlator.distances_ingested", len(distances))
        for from_file, to_file, distance in distances:
            self._store.observe(from_file, to_file, float(distance), now=now)


def oracle_correlator(parameters: SeerParameters = DEFAULT_PARAMETERS,
                      prune: bool = True,
                      compensate: bool = True) -> Correlator:
    """A fresh correlator whose store, engine and clustering pass are
    the oracle's."""
    correlator = Correlator(parameters)
    store = NeighborStore(parameters, metrics=correlator.metrics)
    correlator.store = store
    correlator._engine = ReferenceEngine(
        store, parameters, correlator.metrics,
        prune=prune, compensate=compensate)
    correlator._clustering = OracleClustering(store, parameters)
    return correlator
