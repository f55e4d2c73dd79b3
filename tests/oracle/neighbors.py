"""Bounded per-file neighbor tables (paper section 3.1.3), as objects.

The shipped correlator keeps these tables in the interned
:class:`repro.core.arena.NeighborArena`.  This module keeps the
per-entry transcription of the paper -- one :class:`NeighborTable` of
:class:`~repro.core.distance.DistanceSummary` objects per file -- as
the oracle the arena is compared against.

Storing all N^2 pairwise distances is prohibitive, so SEER keeps for
each file only the distances to its n closest neighbors (n = 20).  When
a new distance arrives for a full table, a replacement priority is
applied:

1. highest priority: an entry whose file is marked for deletion
   (ties broken to the smallest name);
2. otherwise the entry with the largest current distance is replaced,
   ties broken to the smallest name, but only if it is farther than
   the candidate;
3. finally, an aging rule lets very old, inactive entries be replaced
   by newer ones so the table can track changes in user behaviour and
   shed incorrectly inferred relationships (ties broken to the oldest
   ``(last_update, name)``).

The paper breaks the rule-2 tie randomly; here every choice is a pure
function of table state, so the arena, which batches its updates,
evicts exactly the same victim.  Each table still gets its own seeded
``random.Random``, which no rule draws from: the oracle keeps the
per-table cost of the engine it replaced, and the correlator
benchmark's reference and seed tiers measure that cost.

Hot-path discipline: every table maintains an incrementally-updated
*worst-entry bound* -- an upper bound on its largest summarized
distance, refreshed for free from the raw observations.  Replacement
decisions first test the candidate against the bound and only fall
back to an exact scan (over cached means) when the bound says a
replacement might be possible.  The store likewise keeps a reverse
index of which tables contain each file, so renames and removals touch
only the tables actually involved instead of walking every table.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.distance import DistanceSummary
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.observability import Metrics


class NeighborTable:
    """The n-nearest-neighbor list of a single file."""

    def __init__(self, parameters: SeerParameters = DEFAULT_PARAMETERS,
                 rng: Optional[random.Random] = None,
                 owner: Optional[str] = None,
                 index: Optional[Dict[str, Set[str]]] = None,
                 dirty: Optional[Set[str]] = None,
                 metrics: Optional[Metrics] = None) -> None:
        self._parameters = parameters
        self._entries: Dict[str, DistanceSummary] = {}
        self._rng = rng if rng is not None else random.Random(0)
        # Upper bound on the largest summarized distance in the table.
        # Maintained incrementally (means never exceed the largest raw
        # observation); tightened to the exact maximum whenever a
        # replacement decision has to scan anyway.
        self._worst_bound = 0.0
        # Lower bound on the oldest last_update in the table; lets the
        # aging rule skip its scan when nothing can possibly be old
        # enough.  Refreshed to the exact minimum whenever it does scan.
        self._oldest_update = float("inf")
        self._owner = owner
        self._index = index
        # Shared with the owning store: files whose neighbor *set*
        # changed since the incremental reclusterer last drained it.
        # Mean updates to an existing entry do not dirty anything --
        # clustering consumes only the sets.
        self._dirty = dirty
        self._metrics = metrics

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, neighbor: str) -> bool:
        return neighbor in self._entries

    def neighbors(self) -> Set[str]:
        """The set of neighbor file ids currently tracked."""
        return set(self._entries)

    def summary(self, neighbor: str) -> Optional[DistanceSummary]:
        return self._entries.get(neighbor)

    def distance_to(self, neighbor: str) -> float:
        """Current summarized distance to *neighbor* (inf if untracked)."""
        entry = self._entries.get(neighbor)
        if entry is None:
            return float("inf")
        return entry.mean(geometric=self._parameters.use_geometric_mean)

    def items(self) -> Iterator[Tuple[str, float]]:
        geometric = self._parameters.use_geometric_mean
        for neighbor, entry in self._entries.items():
            yield neighbor, entry.mean(geometric=geometric)

    def nearest(self, count: Optional[int] = None) -> List[Tuple[str, float]]:
        """Neighbors sorted by increasing distance."""
        ranked = sorted(self.items(), key=lambda item: (item[1], item[0]))
        return ranked if count is None else ranked[:count]

    def entries(self) -> Iterator[Tuple[str, DistanceSummary]]:
        """All (neighbor, summary) pairs, in insertion order.

        The public persistence surface: both table implementations
        (this one and :class:`~repro.core.arena.ArenaTable`) expose it,
        so serialization never reaches into representation details.
        """
        return iter(self._entries.items())

    def remove(self, neighbor: str) -> None:
        if self._entries.pop(neighbor, None) is not None:
            self._deregister(neighbor)
            self._mark_dirty(neighbor)
            if self._owner is not None:
                self._mark_dirty(self._owner)

    # ------------------------------------------------------------------
    # reverse-index bookkeeping (owned by NeighborStore)
    # ------------------------------------------------------------------
    def _register(self, neighbor: str) -> None:
        if self._index is not None:
            self._index.setdefault(neighbor, set()).add(self._owner)

    def _deregister(self, neighbor: str) -> None:
        if self._index is not None:
            owners = self._index.get(neighbor)
            if owners is not None:
                owners.discard(self._owner)
                if not owners:
                    del self._index[neighbor]

    def _mark_dirty(self, file: str) -> None:
        if self._dirty is not None:
            self._dirty.add(file)

    def observe(self, neighbor: str, distance: float, now: int,
                deletable: Optional[Set[str]] = None) -> bool:
        """Record one observed distance to *neighbor* at reference-time *now*.

        Returns True if the observation was incorporated (the update
        either hit an existing entry, fit in free space, or won the
        replacement priority), False if it was discarded.
        """
        # Compensation (section 3.1.3): distances beyond M are recorded
        # as M, partially adjusting for the truncated window.
        if distance > self._parameters.lookback_window:
            distance = float(self._parameters.compensation_distance)
            if self._metrics is not None:
                self._metrics.incr("neighbor.compensations")

        entry = self._entries.get(neighbor)
        if entry is not None:
            entry.add(distance, now=now)
            if distance > self._worst_bound:
                self._worst_bound = distance
            return True
        if len(self._entries) < self._parameters.max_neighbors:
            fresh = DistanceSummary()
            fresh.add(distance, now=now)
            self._entries[neighbor] = fresh
            self._register(neighbor)
            if self._owner is not None:
                self._mark_dirty(self._owner)
            if distance > self._worst_bound:
                self._worst_bound = distance
            if now < self._oldest_update:
                self._oldest_update = now
            return True
        victim = self._choose_victim(distance, now, deletable or set())
        if victim is None:
            if self._metrics is not None:
                self._metrics.incr("neighbor.rejections")
            return False
        del self._entries[victim]
        self._deregister(victim)
        self._mark_dirty(victim)
        if self._owner is not None:
            self._mark_dirty(self._owner)
        fresh = DistanceSummary()
        fresh.add(distance, now=now)
        self._entries[neighbor] = fresh
        self._register(neighbor)
        if distance > self._worst_bound:
            self._worst_bound = distance
        if now < self._oldest_update:
            self._oldest_update = now
        if self._metrics is not None:
            self._metrics.incr("neighbor.evictions")
        return True

    def _choose_victim(self, candidate_distance: float, now: int,
                       deletable: Set[str]) -> Optional[str]:
        """Apply the three-step replacement priority of section 3.1.3."""
        # 1. A closely related file marked for deletion.
        if deletable:
            marked = [name for name in self._entries if name in deletable]
            if marked:
                return min(marked)  # deterministic among marked entries
        # 2. The entry with the largest current distance, replaced only
        #    if farther than the candidate.  Ties break to the smallest
        #    name: the choice must be a pure function of table state so
        #    the columnar engine (which never draws from a per-table
        #    rng) evicts the same victim as this reference path.  If
        #    the incremental bound already rules a replacement out, the
        #    exact maximum cannot exceed the candidate either and the
        #    scan is skipped entirely.
        if self._worst_bound > candidate_distance:
            geometric = self._parameters.use_geometric_mean
            largest = max(entry.mean(geometric=geometric)
                          for entry in self._entries.values())
            self._worst_bound = largest   # tighten while we know it
            if largest > candidate_distance:
                return min(name for name, entry in self._entries.items()
                           if entry.mean(geometric=geometric) == largest)
        elif self._metrics is not None:
            self._metrics.incr("neighbor.bound_skips")
        # 3. Aging: a very old, inactive entry may be replaced anyway.
        # _oldest_update never exceeds the true minimum last_update, so
        # when even it is within the threshold no entry can be aged and
        # the scan is skipped; when it does scan, the exact minimum is
        # recorded so subsequent calls skip until real aging recurs.
        threshold = self._parameters.aging_threshold
        if now - self._oldest_update > threshold:
            aged_best = None
            true_oldest = float("inf")
            for name, entry in self._entries.items():
                last = entry.last_update
                if last < true_oldest:
                    true_oldest = last
                if now - last > threshold:
                    if aged_best is None or (last, name) < aged_best:
                        aged_best = (last, name)
            self._oldest_update = true_oldest
            if aged_best is not None:
                return aged_best[1]
        return None

    def load_entry(self, neighbor: str, summary: DistanceSummary) -> None:
        """Install a deserialized entry, keeping index and bound valid."""
        if neighbor not in self._entries:
            self._register(neighbor)
        self._entries[neighbor] = summary
        if self._owner is not None:
            self._mark_dirty(self._owner)
        mean = summary.mean(geometric=self._parameters.use_geometric_mean)
        if mean > self._worst_bound:
            self._worst_bound = mean
        if summary.last_update < self._oldest_update:
            self._oldest_update = summary.last_update


class NeighborStore:
    """All per-file neighbor tables, plus the deletion-mark set."""

    def __init__(self, parameters: SeerParameters = DEFAULT_PARAMETERS,
                 seed: int = 0, metrics: Optional[Metrics] = None) -> None:
        self._parameters = parameters
        self._tables: Dict[str, NeighborTable] = {}
        self._rng = random.Random(seed)
        self._metrics = metrics
        self.marked_for_deletion: Set[str] = set()
        # Reverse index: file -> owners whose tables list it as a
        # neighbor.  Renames and removals touch only those tables.
        self._containing: Dict[str, Set[str]] = {}
        # Files whose neighbor sets changed since the last drain; the
        # incremental reclusterer's work queue (repro.core.recluster).
        self._dirty: Set[str] = set()

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, file: str) -> bool:
        return file in self._tables

    def table(self, file: str) -> NeighborTable:
        existing = self._tables.get(file)
        if existing is None:
            existing = NeighborTable(self._parameters,
                                     rng=random.Random(self._rng.random()),
                                     owner=file, index=self._containing,
                                     dirty=self._dirty,
                                     metrics=self._metrics)
            self._tables[file] = existing
            self._dirty.add(file)   # a new (even empty) clustering key
        return existing

    def get(self, file: str) -> Optional[NeighborTable]:
        return self._tables.get(file)

    def files(self) -> List[str]:
        return list(self._tables)

    def containing(self, file: str) -> Set[str]:
        """Owners whose neighbor lists currently include *file*."""
        return set(self._containing.get(file, ()))

    def observe(self, from_file: str, to_file: str, distance: float, now: int) -> bool:
        """Record an observed distance from *from_file* to *to_file*."""
        return self.table(from_file).observe(
            to_file, distance, now, deletable=self.marked_for_deletion)

    def rename_file(self, old: str, new: str) -> None:
        """Carry a file's identity across a rename (section 4.8).

        Its own table moves to the new name and every table listing the
        old name is re-keyed (found through the reverse index, not by
        scanning the store), so relationship information survives
        idioms like writing ``foo.c.tmp`` then renaming it over
        ``foo.c``.  A rename over an existing file destroys the
        destination's identity, so its table is dropped; and no table
        may end up listing its own file, so entries that a re-key would
        turn into self-loops are discarded.
        """
        if old == new:
            return
        moved = self._tables.pop(old, None)
        if moved is not None:
            self._dirty.add(old)
            self._dirty.add(new)
            displaced = self._tables.pop(new, None)
            if displaced is not None:
                for neighbor in displaced.neighbors():
                    displaced._deregister(neighbor)
                    self._dirty.add(neighbor)
            for neighbor in moved.neighbors():
                moved._deregister(neighbor)
            # The moved table must not list its own new name.
            moved._entries.pop(new, None)
            moved._owner = new
            self._tables[new] = moved
            for neighbor in moved.neighbors():
                moved._register(neighbor)
        # Re-key only the tables that actually list the old name.
        for owner in self._containing.pop(old, set()):
            table = self._tables.get(owner)
            if table is None:
                continue
            entry = table._entries.pop(old, None)
            if entry is None:
                continue
            self._dirty.add(owner)
            self._dirty.add(old)
            if owner == new:
                continue   # re-keying would create a self-entry: drop
            if new not in table._entries:
                table._entries[new] = entry
                table._register(new)
        if old in self.marked_for_deletion:
            self.marked_for_deletion.discard(old)
            self.marked_for_deletion.add(new)

    def remove_file(self, file: str) -> None:
        """Drop *file*'s table and purge it from every neighbor list."""
        table = self._tables.pop(file, None)
        if table is not None:
            for neighbor in table.neighbors():
                table._deregister(neighbor)
                self._dirty.add(neighbor)
        for owner in self._containing.pop(file, set()):
            other = self._tables.get(owner)
            if other is not None:
                other._entries.pop(file, None)
                self._dirty.add(owner)
        self._dirty.add(file)
        self.marked_for_deletion.discard(file)

    def neighbor_set(self, file: str) -> Set[str]:
        """One file's current neighbor set (empty if untracked)."""
        table = self._tables.get(file)
        return table.neighbors() if table is not None else set()

    def drain_dirty(self) -> Set[str]:
        """Files whose neighbor sets changed since the last drain."""
        drained = set(self._dirty)
        self._dirty.clear()
        return drained

    def neighbor_lists(self, now: Optional[int] = None,
                       stale_after: Optional[int] = None) -> Dict[str, Set[str]]:
        """File -> set of tracked neighbors; the clustering input.

        With *now* and *stale_after*, entries not reinforced within the
        last *stale_after* references are omitted -- the second half of
        the paper's aging story (section 3.1.3): inferred relationships
        that stop recurring are removed over time, so long-dormant
        clusters dissolve instead of accreting junk forever.
        """
        if now is None or stale_after is None:
            return {file: table.neighbors()
                    for file, table in self._tables.items()}
        cutoff = now - stale_after
        lists: Dict[str, Set[str]] = {}
        for file, table in self._tables.items():
            fresh = {neighbor for neighbor, entry in table._entries.items()
                     if entry.last_update >= cutoff}
            if fresh:
                lists[file] = fresh
        return lists
