"""Columnar neighbor arena: the correlator's distance and neighbor state.

This module holds SEER's lifetime distances (section 3.1.1, Definition
3) and bounded neighbor tables (section 3.1.3) for the correlator.
The paper's direct formulation walks three object layers per observed
pair -- a per-process calculator emits ``(from, to, distance)``
tuples, each is routed to the owning file's table, and
``DistanceSummary`` objects accumulate the running means.  At
production rates the attribute lookups, tuple allocation and method
dispatch dominate the arithmetic by an order of magnitude, so the
state is laid out as a columnar arena instead:

* **Interning.**  Every path is interned once to a dense integer file
  id (fid).  The hot loop compares and hashes small ints, never path
  strings; paths reappear only at the query/persistence boundary.

* **Flat entry rows.**  Each file's neighbor row is a dict mapping
  neighbor fid to a 5-slot entry ``[count, log_sum, linear_sum,
  last_update, mean_cache]`` -- the exact fields of
  :class:`~repro.core.distance.DistanceSummary`, as a plain list.  One
  dict probe returns the mutable entry; an update is five C-level item
  writes with zero allocation.  ``mean_cache`` is ``-1.0`` when stale,
  mirroring the summary's invalidate-on-add caching, so victim scans
  compare exactly the means a ``DistanceSummary`` would report.

* **Fused scan.**  :class:`ColumnarEngine` folds the per-process
  lifetime-distance scan and the arena update into a single loop: the
  distance of each emitted pair is consumed in place instead of being
  materialized as a tuple list and re-dispatched.

* **Columnar snapshots.**  :meth:`NeighborArena.columnar` flattens the
  arena into parallel numpy arrays (owner fid, neighbor fid, count,
  log sum, linear sum, last update) for whole-store queries; the
  stale-link filter used by clustering is a single vectorized mask
  over the ``last_update`` column instead of a per-entry Python scan.

Determinism contract (fenced by ``tests/core/test_equivalence.py``):
for any event stream, the arena reaches *exactly* the state of the
paper's per-entry formulation, kept as a test oracle in
``tests/oracle/`` -- same entries, same float sums, same eviction
victims, same recency.  Two properties make this possible: within one
open every updated row belongs to a distinct owner, so fusing cannot
reorder updates to a single table; and eviction victims are a pure
function of table state (every tie breaks by path, never by a random
draw), so batching cannot change which entry is evicted.  Per-pair
numpy mutation was measured and rejected:
update batches here are small (tens of entries across distinct rows),
where ufunc dispatch costs more than the scalar loop it replaces;
numpy earns its keep on the whole-arena query paths instead.  See
``docs/hot-path.md`` for layout diagrams and measurements.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, MutableSet, Optional, Set, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.distance import DistanceSummary
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.observability import Metrics

#: One neighbor entry: [count, log_sum, linear_sum, last_update,
#: mean_cache]; mean_cache < 0 means "recompute on next read".
Entry = List[float]

_DIRTY_MEAN = -1.0


class NeighborArena:
    """Interned, columnar neighbor state shared by engine and store."""

    def __init__(self, parameters: SeerParameters = DEFAULT_PARAMETERS,
                 metrics: Optional[Metrics] = None) -> None:
        self._parameters = parameters
        self._metrics = metrics
        self._fids: Dict[str, int] = {}
        self._paths: List[str] = []
        #: fid -> {neighbor fid -> Entry}; rows in creation order.
        self._rows: Dict[int, Dict[int, Entry]] = {}
        #: Incremental per-row bounds: an upper bound on the largest
        #: mean (a mean never exceeds the largest raw observation), a
        #: lower bound on the oldest last_update.  Only replacement
        #: decisions consult them, to skip hopeless scans.
        self._bound: Dict[int, float] = {}
        self._oldest: Dict[int, float] = {}
        #: Reverse index: fid -> owner fids whose rows list it.
        self._containing: Dict[int, Set[int]] = {}
        self._deletable: Set[int] = set()
        #: Files whose neighbor *set* changed since the last drain;
        #: feeds the incremental reclusterer (repro.core.recluster).
        self._dirty: Set[int] = set()
        self._geometric = parameters.use_geometric_mean

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def intern(self, path: str) -> int:
        fid = self._fids.get(path)
        if fid is None:
            fid = len(self._paths)
            self._fids[path] = fid
            self._paths.append(path)
        return fid

    def fid_of(self, path: str) -> Optional[int]:
        return self._fids.get(path)

    def path_of(self, fid: int) -> str:
        return self._paths[fid]

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def ensure_row(self, fid: int) -> Dict[int, Entry]:
        row = self._rows.get(fid)
        if row is None:
            row = self._rows[fid] = {}
            self._bound[fid] = 0.0
            self._oldest[fid] = math.inf
            self._dirty.add(fid)   # a new (even empty) clustering key
        return row

    def mean_of(self, entry: Entry) -> float:
        """The cached summarized mean, recomputed exactly as
        :meth:`DistanceSummary.mean` would."""
        mean = entry[4]
        if mean < 0.0:
            count = entry[0]
            if count <= 0:
                return math.inf
            if self._geometric:
                mean = math.expm1(entry[1] / count)
            else:
                mean = entry[2] / count
            entry[4] = mean
        return mean

    # ------------------------------------------------------------------
    # the replacement priority (paper section 3.1.3)
    # ------------------------------------------------------------------
    def choose_victim(self, owner: int, row: Dict[int, Entry],
                      candidate_distance: float, now: int) -> Optional[int]:
        """The three-rule replacement priority of section 3.1.3.

        1. an entry whose file is marked for deletion;
        2. else the entry with the largest mean, only if it is farther
           than the candidate;
        3. else an entry not updated for more than ``aging_threshold``
           references.

        Every choice is a pure function of table state: rule 1 and the
        rule-2 tie both break to the smallest *path* (not fid, so the
        outcome is independent of interning order), rule 3 to the
        oldest ``(last_update, path)``.  ``None`` means the candidate
        is rejected.
        """
        paths = self._paths
        deletable = self._deletable
        if deletable:
            best_path: Optional[str] = None
            best_fid = -1
            for fid in row:
                if fid in deletable:
                    path = paths[fid]
                    if best_path is None or path < best_path:
                        best_path, best_fid = path, fid
            if best_path is not None:
                return best_fid
        if self._bound[owner] > candidate_distance:
            mean_of = self.mean_of
            largest = 0.0
            for entry in row.values():
                mean = mean_of(entry)
                if mean > largest:
                    largest = mean
            self._bound[owner] = largest   # tighten while we know it
            if largest > candidate_distance:
                best_path = None
                best_fid = -1
                for fid, entry in row.items():
                    if entry[4] == largest:
                        path = paths[fid]
                        if best_path is None or path < best_path:
                            best_path, best_fid = path, fid
                return best_fid
        elif self._metrics is not None:
            self._metrics.incr("neighbor.bound_skips")
        threshold = self._parameters.aging_threshold
        if now - self._oldest[owner] > threshold:
            aged_key: Optional[Tuple[float, str]] = None
            aged_fid = -1
            true_oldest = math.inf
            for fid, entry in row.items():
                last = entry[3]
                if last < true_oldest:
                    true_oldest = last
                if now - last > threshold:
                    key = (last, paths[fid])
                    if aged_key is None or key < aged_key:
                        aged_key, aged_fid = key, fid
            self._oldest[owner] = true_oldest
            if aged_key is not None:
                return aged_fid
        return None

    # ------------------------------------------------------------------
    # single-pair update (the non-fused API path; the fused loop in
    # ColumnarEngine.open inlines exactly this logic)
    # ------------------------------------------------------------------
    def update(self, owner: int, neighbor: int, distance: float,
               now: int) -> bool:
        """Record one observed distance from *owner* to *neighbor*.

        Distances beyond the lookback window are recorded as the
        compensation distance (section 3.1.3).  Returns False if a
        full row rejected the observation.
        """
        if distance > self._parameters.lookback_window:
            distance = float(self._parameters.compensation_distance)
            if self._metrics is not None:
                self._metrics.incr("neighbor.compensations")
        row = self.ensure_row(owner)
        nowf = float(now)
        entry = row.get(neighbor)
        if entry is not None:
            entry[0] += 1.0
            entry[1] += math.log1p(distance)
            entry[2] += distance
            entry[3] = nowf
            entry[4] = _DIRTY_MEAN
            if distance > self._bound[owner]:
                self._bound[owner] = distance
            return True
        if len(row) >= self._parameters.max_neighbors:
            victim = self.choose_victim(owner, row, distance, now)
            if victim is None:
                if self._metrics is not None:
                    self._metrics.incr("neighbor.rejections")
                return False
            self.drop_entry(owner, row, victim)
            self._dirty.add(victim)
            if self._metrics is not None:
                self._metrics.incr("neighbor.evictions")
        row[neighbor] = [1.0, math.log1p(distance), distance, nowf,
                         _DIRTY_MEAN]
        owners = self._containing.get(neighbor)
        if owners is None:
            self._containing[neighbor] = {owner}
        else:
            owners.add(owner)
        if distance > self._bound[owner]:
            self._bound[owner] = distance
        if nowf < self._oldest[owner]:
            self._oldest[owner] = nowf
        self._dirty.add(owner)
        return True

    def drop_entry(self, owner: int, row: Dict[int, Entry],
                   neighbor: int) -> None:
        """Remove one entry, keeping the reverse index consistent."""
        del row[neighbor]
        owners = self._containing.get(neighbor)
        if owners is not None:
            owners.discard(owner)
            if not owners:
                del self._containing[neighbor]

    def load_entry(self, owner: int, neighbor: int,
                   summary: DistanceSummary) -> None:
        """Install a deserialized entry (persistence restore path)."""
        row = self.ensure_row(owner)
        if neighbor not in row:
            owners = self._containing.setdefault(neighbor, set())
            owners.add(owner)
        row[neighbor] = [float(summary.count), summary.log_sum,
                         summary.linear_sum, float(summary.last_update),
                         _DIRTY_MEAN]
        mean = self.mean_of(row[neighbor])
        if mean > self._bound[owner]:
            self._bound[owner] = mean
        if summary.last_update < self._oldest[owner]:
            self._oldest[owner] = float(summary.last_update)
        self._dirty.add(owner)

    # ------------------------------------------------------------------
    # rename / remove (paper section 4.8)
    # ------------------------------------------------------------------
    def rename_file(self, old: str, new: str) -> None:
        if old == new:
            return
        old_fid = self._fids.get(old)
        if old_fid is None:
            return
        new_fid = self.intern(new)
        rows = self._rows
        containing = self._containing
        dirty = self._dirty
        moved = rows.pop(old_fid, None)
        if moved is not None:
            dirty.add(old_fid)
            dirty.add(new_fid)
            displaced = rows.pop(new_fid, None)
            if displaced is not None:
                # A rename over a live file destroys its identity.
                for neighbor in displaced:
                    dirty.add(neighbor)
                    owners = containing.get(neighbor)
                    if owners is not None:
                        owners.discard(new_fid)
                        if not owners:
                            del containing[neighbor]
            for neighbor in moved:
                owners = containing.get(neighbor)
                if owners is not None:
                    owners.discard(old_fid)
                    if not owners:
                        del containing[neighbor]
            # The moved row must not list its own new name.
            moved.pop(new_fid, None)
            rows[new_fid] = moved
            for neighbor in moved:
                containing.setdefault(neighbor, set()).add(new_fid)
            self._bound[new_fid] = self._bound.pop(old_fid)
            self._oldest[new_fid] = self._oldest.pop(old_fid)
        # Re-key only the rows that actually list the old name.
        for owner in sorted(containing.pop(old_fid, set())):
            row = rows.get(owner)
            if row is None:
                continue
            entry = row.pop(old_fid, None)
            if entry is None:
                continue
            dirty.add(owner)
            dirty.add(old_fid)
            if owner == new_fid:
                continue   # re-keying would create a self-entry: drop
            if new_fid not in row:
                row[new_fid] = entry
                containing.setdefault(new_fid, set()).add(owner)
        if old_fid in self._deletable:
            self._deletable.discard(old_fid)
            self._deletable.add(new_fid)

    def remove_file(self, path: str) -> None:
        fid = self._fids.get(path)
        if fid is None:
            return
        row = self._rows.pop(fid, None)
        if row is not None:
            self._bound.pop(fid, None)
            self._oldest.pop(fid, None)
            for neighbor in row:
                self._dirty.add(neighbor)
                owners = self._containing.get(neighbor)
                if owners is not None:
                    owners.discard(fid)
                    if not owners:
                        del self._containing[neighbor]
        for owner in sorted(self._containing.pop(fid, set())):
            other = self._rows.get(owner)
            if other is not None:
                other.pop(fid, None)
                self._dirty.add(owner)
        self._dirty.add(fid)
        self._deletable.discard(fid)

    # ------------------------------------------------------------------
    # columnar snapshots (the numpy query layer)
    # ------------------------------------------------------------------
    def columnar(self) -> Dict[str, npt.NDArray[np.float64]]:
        """Flatten the arena into parallel arrays, one slot per entry.

        Columns: ``owner``, ``neighbor`` (fids), ``count``,
        ``log_sum``, ``linear_sum``, ``last_update``.  All float64 so
        one allocation pattern serves every column; counts and fids
        are integral-valued.  This is the bulk-query surface: staleness
        masks, persistence export and analysis scans operate on these
        arrays instead of per-entry Python objects.
        """
        total = sum(len(row) for row in self._rows.values())
        owner = np.empty(total, dtype=np.float64)
        neighbor = np.empty(total, dtype=np.float64)
        count = np.empty(total, dtype=np.float64)
        log_sum = np.empty(total, dtype=np.float64)
        linear_sum = np.empty(total, dtype=np.float64)
        last_update = np.empty(total, dtype=np.float64)
        slot = 0
        for fid, row in self._rows.items():
            for nfid, entry in row.items():
                owner[slot] = fid
                neighbor[slot] = nfid
                count[slot] = entry[0]
                log_sum[slot] = entry[1]
                linear_sum[slot] = entry[2]
                last_update[slot] = entry[3]
                slot += 1
        return {"owner": owner, "neighbor": neighbor, "count": count,
                "log_sum": log_sum, "linear_sum": linear_sum,
                "last_update": last_update}

    def fresh_neighbor_lists(self, cutoff: int) -> Dict[str, Set[str]]:
        """Stale-link filtering as a vectorized mask (section 3.1.3).

        Entries not reinforced since *cutoff* are omitted; owners left
        with no fresh entries are omitted entirely.
        """
        columns = self.columnar()
        mask = columns["last_update"] >= cutoff
        owners = columns["owner"][mask].astype(np.int64)
        neighbors = columns["neighbor"][mask].astype(np.int64)
        paths = self._paths
        lists: Dict[str, Set[str]] = {}
        for fid, nfid in zip(owners.tolist(), neighbors.tolist()):
            lists.setdefault(paths[fid], set()).add(paths[nfid])
        return lists


class _MarkedSetView(MutableSet[str]):
    """Path-level live view of the arena's marked-for-deletion fids."""

    __slots__ = ("_arena",)

    def __init__(self, arena: NeighborArena) -> None:
        self._arena = arena

    def __contains__(self, path: object) -> bool:
        if not isinstance(path, str):
            return False
        fid = self._arena._fids.get(path)
        return fid is not None and fid in self._arena._deletable

    def __iter__(self) -> Iterator[str]:
        paths = self._arena._paths
        return iter(sorted(paths[fid] for fid in self._arena._deletable))

    def __len__(self) -> int:
        return len(self._arena._deletable)

    def add(self, value: str) -> None:
        self._arena._deletable.add(self._arena.intern(value))

    def discard(self, value: str) -> None:
        fid = self._arena._fids.get(value)
        if fid is not None:
            self._arena._deletable.discard(fid)


class ArenaTable:
    """Path-level read/update view of one file's arena row."""

    __slots__ = ("_arena", "_fid")

    def __init__(self, arena: NeighborArena, fid: int) -> None:
        self._arena = arena
        self._fid = fid

    def _row(self) -> Dict[int, Entry]:
        return self._arena._rows.get(self._fid, {})

    def __len__(self) -> int:
        return len(self._row())

    def __contains__(self, neighbor: str) -> bool:
        fid = self._arena._fids.get(neighbor)
        return fid is not None and fid in self._row()

    def neighbors(self) -> Set[str]:
        paths = self._arena._paths
        return {paths[fid] for fid in self._row()}

    def summary(self, neighbor: str) -> Optional[DistanceSummary]:
        fid = self._arena._fids.get(neighbor)
        if fid is None:
            return None
        entry = self._row().get(fid)
        if entry is None:
            return None
        return DistanceSummary(count=int(entry[0]), log_sum=entry[1],
                               linear_sum=entry[2],
                               last_update=int(entry[3]))

    def distance_to(self, neighbor: str) -> float:
        fid = self._arena._fids.get(neighbor)
        if fid is None:
            return math.inf
        entry = self._row().get(fid)
        if entry is None:
            return math.inf
        return self._arena.mean_of(entry)

    def items(self) -> Iterator[Tuple[str, float]]:
        arena = self._arena
        paths = arena._paths
        for fid, entry in self._row().items():
            yield paths[fid], arena.mean_of(entry)

    def nearest(self, count: Optional[int] = None) -> List[Tuple[str, float]]:
        ranked = sorted(self.items(), key=lambda item: (item[1], item[0]))
        return ranked if count is None else ranked[:count]

    def entries(self) -> Iterator[Tuple[str, DistanceSummary]]:
        paths = self._arena._paths
        for fid, entry in self._row().items():
            yield paths[fid], DistanceSummary(
                count=int(entry[0]), log_sum=entry[1], linear_sum=entry[2],
                last_update=int(entry[3]))

    def observe(self, neighbor: str, distance: float, now: int) -> bool:
        return self._arena.update(self._fid, self._arena.intern(neighbor),
                                  distance, now)

    def load_entry(self, neighbor: str, summary: DistanceSummary) -> None:
        self._arena.load_entry(self._fid, self._arena.intern(neighbor),
                               summary)

    def remove(self, neighbor: str) -> None:
        fid = self._arena._fids.get(neighbor)
        if fid is None:
            return
        row = self._arena._rows.get(self._fid)
        if row is not None and fid in row:
            self._arena.drop_entry(self._fid, row, fid)
            self._arena._dirty.add(self._fid)
            self._arena._dirty.add(fid)


class ArenaStore:
    """Path-level facade over the arena: the correlator's neighbor store.

    Persistence, cluster building and the web-cache extension read the
    neighbor tables through this API; fids never leave the arena.
    """

    def __init__(self, arena: NeighborArena) -> None:
        self._arena = arena
        self._marked = _MarkedSetView(arena)

    def __len__(self) -> int:
        return len(self._arena._rows)

    def __contains__(self, file: str) -> bool:
        fid = self._arena._fids.get(file)
        return fid is not None and fid in self._arena._rows

    @property
    def marked_for_deletion(self) -> _MarkedSetView:
        return self._marked

    @marked_for_deletion.setter
    def marked_for_deletion(self, paths: Set[str]) -> None:
        arena = self._arena
        arena._deletable.clear()
        for path in sorted(paths):
            arena._deletable.add(arena.intern(path))

    def table(self, file: str) -> ArenaTable:
        fid = self._arena.intern(file)
        self._arena.ensure_row(fid)
        return ArenaTable(self._arena, fid)

    def get(self, file: str) -> Optional[ArenaTable]:
        fid = self._arena._fids.get(file)
        if fid is None or fid not in self._arena._rows:
            return None
        return ArenaTable(self._arena, fid)

    def files(self) -> List[str]:
        paths = self._arena._paths
        return [paths[fid] for fid in self._arena._rows]

    def containing(self, file: str) -> Set[str]:
        fid = self._arena._fids.get(file)
        if fid is None:
            return set()
        paths = self._arena._paths
        return {paths[owner] for owner in self._arena._containing.get(fid, ())}

    def observe(self, from_file: str, to_file: str, distance: float,
                now: int) -> bool:
        arena = self._arena
        return arena.update(arena.intern(from_file), arena.intern(to_file),
                            distance, now)

    def rename_file(self, old: str, new: str) -> None:
        self._arena.rename_file(old, new)

    def remove_file(self, file: str) -> None:
        self._arena.remove_file(file)

    def neighbor_set(self, file: str) -> Set[str]:
        """One file's current neighbor set (empty if untracked)."""
        fid = self._arena._fids.get(file)
        if fid is None:
            return set()
        row = self._arena._rows.get(fid)
        if row is None:
            return set()
        paths = self._arena._paths
        return {paths[nfid] for nfid in row}

    def neighbor_lists(self, now: Optional[int] = None,
                       stale_after: Optional[int] = None) -> Dict[str, Set[str]]:
        if now is None or stale_after is None:
            paths = self._arena._paths
            return {paths[fid]: {paths[nfid] for nfid in row}
                    for fid, row in self._arena._rows.items()}
        return self._arena.fresh_neighbor_lists(now - stale_after)

    def drain_dirty(self) -> Set[str]:
        """Files whose neighbor sets changed since the last drain."""
        arena = self._arena
        paths = arena._paths
        drained = {paths[fid] for fid in arena._dirty}
        arena._dirty.clear()
        return drained

    def columnar(self) -> Dict[str, npt.NDArray[np.float64]]:
        return self._arena.columnar()


class _EngineStream:
    """Per-process lifetime-distance state, fid-keyed (section 4.7)."""

    __slots__ = ("open_count", "last_open_index", "open_counter")

    def __init__(self) -> None:
        self.open_count: Dict[int, int] = {}
        self.last_open_index: Dict[int, int] = {}
        self.open_counter = 0


class ColumnarEngine:
    """Fused per-process distance scan + arena update (the hot loop).

    The correlator's engine interface: per-pid streams with fork/exit
    inheritance (section 4.7), open/close/point reference ingestion,
    rename re-keying and forget (section 4.8).  The open loop computes
    each lifetime distance (section 3.1.1, Definition 3) and feeds it
    to the owning row in place, with the logic of
    :meth:`NeighborArena.update` inlined and no intermediate tuples;
    its semantics are pinned entry-for-entry to the paper's per-entry
    formulation by the differential suite against ``tests/oracle/``.
    """

    def __init__(self, arena: NeighborArena,
                 parameters: SeerParameters = DEFAULT_PARAMETERS,
                 metrics: Optional[Metrics] = None) -> None:
        self._arena = arena
        self._metrics = metrics
        self._streams: Dict[int, _EngineStream] = {}
        self._lookback = parameters.lookback_window
        self._compensation = float(parameters.compensation_distance)
        self._cap = parameters.max_neighbors

    # ------------------------------------------------------------------
    # stream lifecycle
    # ------------------------------------------------------------------
    def ensure(self, pid: int) -> None:
        if pid not in self._streams:
            self._streams[pid] = _EngineStream()

    def fork(self, pid: int, ppid: int) -> int:
        """Clone the parent's history into a child stream; returns the
        child's open counter (the merge base for exit)."""
        child = _EngineStream()
        if ppid:
            parent = self._streams.get(ppid)
            if parent is None:
                parent = self._streams[ppid] = _EngineStream()
            child.open_count = dict(parent.open_count)
            child.last_open_index = dict(parent.last_open_index)
            child.open_counter = parent.open_counter
        self._streams[pid] = child
        return child.open_counter

    def exit(self, pid: int, merge_ppid: int, since: int) -> None:
        """Drop the stream, merging post-fork history into the parent
        (section 4.7).  ``merge_ppid`` is 0 for streams not created by
        a fork."""
        child = self._streams.pop(pid, None)
        if child is None or not merge_ppid:
            return
        parent = self._streams.get(merge_ppid)
        if parent is None:
            return
        new_opens = child.open_counter - since
        if new_opens < 0:
            new_opens = 0
        base = parent.open_counter
        parent.open_counter = base + new_opens
        parent_index = parent.last_open_index
        for fid, child_index in child.last_open_index.items():
            if child_index <= since:
                continue
            mapped = base + (child_index - since)
            if mapped > parent_index.get(fid, -1):
                parent_index[fid] = mapped

    # ------------------------------------------------------------------
    # reference ingestion (the fused hot loop)
    # ------------------------------------------------------------------
    def open(self, pid: int, path: str, now: int) -> int:
        """Record an open; ingest all emitted distances.  Returns the
        opened file's fid (for :meth:`point`)."""
        stream = self._streams.get(pid)
        if stream is None:
            stream = self._streams[pid] = _EngineStream()
        arena = self._arena
        fid = arena._fids.get(path)
        if fid is None:
            fid = arena.intern(path)
        open_count = stream.open_count
        last_open = stream.last_open_index
        stream.open_counter += 1
        index = stream.open_counter

        rows = arena._rows
        bound = arena._bound
        oldest = arena._oldest
        containing = arena._containing
        dirty = arena._dirty
        log1p = math.log1p
        lookback = self._lookback
        compensation = self._compensation
        cap = self._cap
        nowf = float(now)
        aged: Optional[List[int]] = None
        pairs = 0
        compensated = 0
        evictions = 0
        rejections = 0

        for other, other_index in last_open.items():
            if other == fid:
                continue
            if other in open_count:
                distance = 0.0
            else:
                gap = index - other_index
                if gap > lookback:
                    # Over-window (section 3.1.3): prune the entry --
                    # it can never re-enter the window -- and emit its
                    # distance once, which the arena records clamped
                    # to the compensation distance.
                    if aged is None:
                        aged = [other]
                    else:
                        aged.append(other)
                    compensated += 1
                    distance = compensation
                else:
                    distance = float(gap)
            pairs += 1
            row = rows.get(other)
            if row is None:
                row = rows[other] = {}
                bound[other] = 0.0
                oldest[other] = math.inf
            entry = row.get(fid)
            if entry is not None:
                entry[0] += 1.0
                entry[1] += log1p(distance)
                entry[2] += distance
                entry[3] = nowf
                entry[4] = _DIRTY_MEAN
                if distance > bound[other]:
                    bound[other] = distance
                continue
            if len(row) >= cap:
                victim = arena.choose_victim(other, row, distance, now)
                if victim is None:
                    rejections += 1
                    continue
                del row[victim]
                owners = containing.get(victim)
                if owners is not None:
                    owners.discard(other)
                    if not owners:
                        del containing[victim]
                dirty.add(victim)
                evictions += 1
            row[fid] = [1.0, log1p(distance), distance, nowf, _DIRTY_MEAN]
            owners = containing.get(fid)
            if owners is None:
                containing[fid] = {other}
            else:
                owners.add(other)
            if distance > bound[other]:
                bound[other] = distance
            if nowf < oldest[other]:
                oldest[other] = nowf
            dirty.add(other)

        if aged is not None:
            for other in aged:
                del last_open[other]
        last_open[fid] = index
        open_count[fid] = open_count.get(fid, 0) + 1

        metrics = self._metrics
        if metrics is not None:
            if pairs:
                metrics.incr("correlator.distances_ingested", pairs)
            if aged is not None:
                metrics.incr("distance.pruned_entries", len(aged))
            if compensated:
                metrics.incr("distance.compensated_pairs", compensated)
                metrics.incr("neighbor.compensations", compensated)
            if evictions:
                metrics.incr("neighbor.evictions", evictions)
            if rejections:
                metrics.incr("neighbor.rejections", rejections)
        return fid

    def close(self, pid: int, path: str) -> None:
        stream = self._streams.get(pid)
        if stream is None:
            stream = self._streams[pid] = _EngineStream()
        fid = self._arena._fids.get(path)
        if fid is None:
            return
        count = stream.open_count.get(fid, 0)
        if count > 1:
            stream.open_count[fid] = count - 1
        elif count == 1:
            del stream.open_count[fid]

    def point(self, pid: int, path: str, now: int) -> None:
        fid = self.open(pid, path, now)
        stream = self._streams[pid]
        count = stream.open_count.get(fid, 0)
        if count > 1:
            stream.open_count[fid] = count - 1
        elif count == 1:
            del stream.open_count[fid]

    # ------------------------------------------------------------------
    # identity maintenance
    # ------------------------------------------------------------------
    def rename(self, old: str, new: str) -> None:
        """Re-key stream state across a rename, in every stream."""
        if old == new:
            return
        old_fid = self._arena._fids.get(old)
        if old_fid is None:
            return
        new_fid = self._arena.intern(new)
        for stream in self._streams.values():
            count = stream.open_count.pop(old_fid, None)
            if count is not None:
                stream.open_count[new_fid] = (
                    stream.open_count.get(new_fid, 0) + count)
            index = stream.last_open_index.pop(old_fid, None)
            if index is not None:
                previous = stream.last_open_index.get(new_fid, 0)
                stream.last_open_index[new_fid] = (
                    index if index > previous else previous)

    def forget(self, path: str) -> None:
        """Drop all stream state about *path* (delayed deletion)."""
        fid = self._arena._fids.get(path)
        if fid is None:
            return
        for stream in self._streams.values():
            stream.open_count.pop(fid, None)
            stream.last_open_index.pop(fid, None)
