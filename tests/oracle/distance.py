"""Definition 3, lifetime semantic distance, as the paper states it.

The shipped correlator computes lifetime distances inside the fused
scan of :meth:`repro.core.arena.ColumnarEngine.open`.  This module
keeps the direct one-stream formulation of section 3.1.1 as the
oracle that scan is compared against: each open returns its
``(from, to, distance)`` tuples, and the oracle engine
(:mod:`tests.oracle.engine`) feeds them one at a time into a
:class:`~tests.oracle.neighbors.NeighborStore`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.distance import RefKind, Reference
from repro.observability import Metrics


class LifetimeDistanceCalculator:
    """Definition 3: the measure SEER uses.

    The distance from an open of file A to an open of file B is 0 if A
    has not been closed before B is opened, and the number of
    intervening file opens (including the open of B) otherwise.

    The calculator processes a single reference stream (one process, in
    SEER's per-process formulation of section 4.7).  Each call to
    :meth:`open` reports the distances from previously-opened files to
    the newly-opened one, using the most recent open of each earlier
    file (the "closest pair" rule of footnote 1).

    Bounded state (section 3.1.3): with a lookback window M set, an
    entry whose most recent open has aged more than M opens into the
    past can never again yield an in-window distance (ages only grow,
    and a re-open re-keys the entry afresh), so it is *pruned* the
    first time an open finds it aged out.  This bounds the per-open
    cost by the window size plus the number of currently-open files,
    instead of by every file the stream has ever touched.  At the
    moment an entry ages out, its over-window distance is emitted once
    (*compensate*), so the neighbor store can apply the paper's
    compensation rule -- record distances beyond M as M -- rather than
    silently losing the pair.  Files that are still open are exempt
    from pruning: their distance is 0 regardless of age.

    ``prune=False, compensate=False`` reproduces the historical
    unbounded behaviour (skip over-window pairs, forget nothing), the
    "seed mode" the ingest-throughput benchmark measures against.
    The shipped engine always prunes and compensates.
    """

    def __init__(self, lookback_window: Optional[int] = None,
                 prune: bool = True, compensate: bool = True,
                 metrics: Optional[Metrics] = None) -> None:
        self._open_counter = 0
        self._open_count: Dict[str, int] = {}       # currently-open fd count
        self._last_open_index: Dict[str, int] = {}  # most recent open seq
        self._lookback = lookback_window
        self._prune = prune
        self._compensate = compensate
        self._metrics = metrics

    @property
    def opens_processed(self) -> int:
        return self._open_counter

    @property
    def tracked_files(self) -> int:
        """Entries currently held (bounded by M + open files when pruning)."""
        return len(self._last_open_index)

    def open(self, file: str) -> List[Tuple[str, str, int]]:
        """Record an open of *file*; returns ``(from, to, distance)`` pairs."""
        self._open_counter += 1
        index = self._open_counter
        lookback = self._lookback
        open_count = self._open_count
        results: List[Tuple[str, str, int]] = []
        aged: List[str] = []
        compensated = 0
        for other, other_index in self._last_open_index.items():
            if other == file:
                continue
            if other in open_count:
                results.append((other, file, 0))
                continue
            distance = index - other_index
            if lookback is not None and distance > lookback:
                # Outside the update window (section 3.1.3).  Emit the
                # over-window distance once so the neighbor store can
                # record it as the compensation distance, then drop the
                # entry: it can never re-enter the window.
                if self._compensate:
                    results.append((other, file, distance))
                    compensated += 1
                if self._prune:
                    aged.append(other)
                continue
            results.append((other, file, distance))
        if aged:
            for other in aged:
                del self._last_open_index[other]
        if self._metrics is not None and (aged or compensated):
            if aged:
                self._metrics.incr("distance.pruned_entries", len(aged))
            if compensated:
                self._metrics.incr("distance.compensated_pairs", compensated)
        self._last_open_index[file] = index
        open_count[file] = open_count.get(file, 0) + 1
        return results

    def close(self, file: str) -> None:
        """Record a close of *file* (tolerates unbalanced closes)."""
        count = self._open_count.get(file, 0)
        if count > 1:
            self._open_count[file] = count - 1
        elif count == 1:
            # Drop the key entirely so the open-count map stays bounded
            # by the number of *currently* open files.
            del self._open_count[file]

    def point_reference(self, file: str) -> List[Tuple[str, str, int]]:
        """An open immediately followed by a close (sections 3.1.1, 4.8)."""
        results = self.open(file)
        self.close(file)
        return results

    def is_open(self, file: str) -> bool:
        return self._open_count.get(file, 0) > 0

    def forget(self, file: str) -> None:
        """Drop all state about *file* (used after delayed deletion)."""
        self._open_count.pop(file, None)
        self._last_open_index.pop(file, None)

    def rename(self, old: str, new: str) -> None:
        """Re-key a file's stream state across a rename (section 4.8).

        When both names are open (rename over a live destination), the
        descriptors all refer to the surviving identity, so the open
        counts are *summed* -- overwriting would lose open state and
        make the file look closed while descriptors remain.
        """
        if old == new:
            return
        if old in self._open_count:
            self._open_count[new] = (self._open_count.get(new, 0)
                                     + self._open_count.pop(old))
        if old in self._last_open_index:
            index = self._last_open_index.pop(old)
            self._last_open_index[new] = max(
                index, self._last_open_index.get(new, 0))

    def clone(self) -> "LifetimeDistanceCalculator":
        """Copy for a forked child, which inherits the parent's history
        (section 4.7)."""
        copy = LifetimeDistanceCalculator(
            lookback_window=self._lookback, prune=self._prune,
            compensate=self._compensate, metrics=self._metrics)
        copy._open_counter = self._open_counter
        copy._open_count = dict(self._open_count)
        copy._last_open_index = dict(self._last_open_index)
        return copy

    def merge_from(self, child: "LifetimeDistanceCalculator", since: int = 0) -> None:
        """Absorb a child stream's history on process exit (section 4.7).

        *since* is the child's open counter at fork time; entries at or
        below it were inherited from the parent and need no merging.
        The parent's counter advances by the number of opens the child
        performed, and the child's post-fork opens are mapped onto the
        parent's timeline at their relative positions.  This lets SEER
        "detect extended relationships between files referenced by a
        process and by its parent" while still aging the parent's own
        older references correctly.  Open counts do not transfer: the
        kernel drops a dead child's descriptors.
        """
        new_opens = max(0, child._open_counter - since)
        base = self._open_counter
        self._open_counter = base + new_opens
        for file, child_index in child._last_open_index.items():
            if child_index <= since:
                continue
            mapped = base + (child_index - since)
            if mapped > self._last_open_index.get(file, -1):
                self._last_open_index[file] = mapped

    def process_events(self, events: Iterable[Reference]) -> List[Tuple[str, str, int]]:
        """Run a whole event stream; convenience for tests and replay."""
        out: List[Tuple[str, str, int]] = []
        for event in events:
            if event.kind is RefKind.OPEN:
                out.extend(self.open(event.file))
            else:
                self.close(event.file)
        return out
