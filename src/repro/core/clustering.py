"""Shared-neighbor clustering (paper sections 3.3.2 and 3.3.3).

A variation of the Jarvis-Patrick agglomerative algorithm.  The
original computes each point's n nearest neighbors (O(N^2)); SEER
reuses the neighbor tables already maintained by the semantic-distance
heuristic, giving O(N) time.  Two thresholds are used (Table 1):

====================  =============================================
relationship          action
====================  =============================================
kn <= x               clusters combined into one
kf <= x < kn          files inserted into each other's clusters,
                      but the clusters are not combined
x < kf                no action
====================  =============================================

where x is the number of shared neighbors, kn > kf ("near" exceeds
"far" because smaller thresholds are more lenient).

Additional information (section 3.3.3) -- directory distance and
external-investigator relations -- adjusts the shared-neighbor count
directly rather than the semantic distance: directory distance is
subtracted, investigator strength added.  Investigated relationships
are tested even for pairs with no stored semantic distance, so a
sufficiently strong relation can force files into one cluster.

One pass over arena fids
------------------------

:class:`SharedNeighborPass` runs on the arena's integer file ids from
input to union-find.  It reads each row's neighbor fids (stale- and
exclude-filtered), interns each relation's files (which adds no row)
to key relation strengths by fid pair, and takes each fid's directory
components from the arena, where they were split once at interning.
The pair (F, G) is *examined* when G is in F's list -- a blank entry
in Table 2's sense is never considered, even if the two files share
neighbors -- and relation pairs not examined that way are examined
after every listed pair.  One walk
over the rows and their neighbors in sorted *path* order computes or
reuses each examined pair's count and files the pair in a near list
(count >= kn) or a far list (kf <= count < kn).  Phase 1 unions the
near list and phase 2 overlaps the far list, in that order; roots are
ranked by path, so cluster ids never follow fid order.

Counts reused across builds
---------------------------

A pair's effective count is the raw shared count (a function of the two
neighbor sets), plus the investigator term (a function of the pair's
relation strength), minus the directory term (a function of the two
paths), optionally divided by a denominator (a function of the two
sets); the correlator's parameters are fixed.  So one rule serves every
examined pair, listed or related: a build reuses the previous build's
count when neither endpoint's neighbor set changed and the pair's
strength equals the previous build's (a pair with no relation has
strength 0.0 in both).  That count is bit-identical to a fresh one.  A
file whose list appears, disappears or differs counts as changed.  Fids
make this sound across renames: a path keeps its fid, and a renamed
file's new path gets a new one.  A build whose relations equal the
previous build's -- a Seer's, until its filesystem changes -- also
keeps the previous strength table instead of interning them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.core.arena import NeighborArena
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.fs.paths import tree_distance


@dataclass(frozen=True)
class Relation:
    """An external-investigator relation: a group of related files with
    an investigator-chosen strength (section 3.2)."""

    files: Tuple[str, ...]
    strength: float = 1.0
    source: str = "investigator"

    def __post_init__(self) -> None:
        if len(self.files) < 2:
            raise ValueError("a relation needs at least two files")
        if self.strength < 0:
            raise ValueError("relation strength must be non-negative")


class ClusterSet:
    """The result of clustering: possibly overlapping groups of files."""

    def __init__(self) -> None:
        self._clusters: Dict[int, Set[str]] = {}
        self._membership: Dict[str, Set[int]] = {}
        self._next_id = 0

    def new_cluster(self, members: Iterable[str]) -> int:
        cluster_id = self._next_id
        self._next_id += 1
        self._clusters[cluster_id] = set()
        for member in members:
            self.add_member(cluster_id, member)
        return cluster_id

    def add_member(self, cluster_id: int, file: str) -> None:
        self._clusters[cluster_id].add(file)
        self._membership.setdefault(file, set()).add(cluster_id)

    def clusters_of(self, file: str) -> Set[int]:
        return set(self._membership.get(file, set()))

    def members(self, cluster_id: int) -> Set[str]:
        return set(self._clusters[cluster_id])

    def cluster_ids(self) -> List[int]:
        return list(self._clusters)

    def as_sets(self) -> List[FrozenSet[str]]:
        """All clusters as frozensets (convenient for comparisons)."""
        return [frozenset(members) for members in self._clusters.values()]

    def files(self) -> Set[str]:
        return set(self._membership)

    def deduplicate(self) -> Dict[int, int]:
        """Drop clusters whose member sets duplicate an earlier one.

        Mutual phase-2 overlap of two clusters can leave them with
        identical contents; one copy carries all the information.
        Returns the applied id remapping (dropped id -> surviving id).

        Membership redirection follows remap *chains*: if the cluster
        recorded as a key's survivor has itself been dropped in this
        pass (chained duplicates), members are pointed at its ultimate
        survivor, never at a deleted id -- ``clusters_of`` and
        ``project_of`` results always reference live clusters.
        """
        seen: Dict[FrozenSet[str], int] = {}
        remap: Dict[int, int] = {}
        for cluster_id in sorted(self._clusters):
            key = frozenset(self._clusters[cluster_id])
            survivor = seen.get(key)
            if survivor is None:
                seen[key] = cluster_id
                continue
            while survivor in remap:     # chase chained duplicates
                survivor = remap[survivor]
            remap[cluster_id] = survivor
            for member in self._clusters[cluster_id]:
                self._membership[member].discard(cluster_id)
                self._membership[member].add(survivor)
            del self._clusters[cluster_id]
        return remap

    def same_cluster(self, file_a: str, file_b: str) -> bool:
        """True if the two files share at least one cluster."""
        return bool(self.clusters_of(file_a) & self.clusters_of(file_b))

    def project_of(self, file: str) -> Set[str]:
        """Union of all clusters containing *file* (its 'project')."""
        union: Set[str] = set()
        for cluster_id in self.clusters_of(file):
            union |= self._clusters[cluster_id]
        return union

    def __len__(self) -> int:
        return len(self._clusters)

    def __repr__(self) -> str:
        return f"ClusterSet({len(self._clusters)} clusters, {len(self._membership)} files)"


#: fid -> {fid -> value}: a relation strength or a pair count.
PairTable = Dict[int, Dict[int, float]]

_NO_NEIGHBORS: FrozenSet[int] = frozenset()
_NO_ROW: Dict[int, float] = {}     # an absent PairTable row; never written


class SharedNeighborPass:
    """The modified Jarvis-Patrick algorithm over one arena's fids.

    One instance serves every build of a correlator: it keeps the last
    build's neighbor sets, relations, strength table and counts, for the
    next build to reuse (``counts_reused``; the rest are
    ``counts_computed``).
    """

    def __init__(self, arena: NeighborArena,
                 parameters: SeerParameters = DEFAULT_PARAMETERS) -> None:
        self._arena = arena
        self._parameters = parameters
        self._rows: Dict[int, Set[int]] = {}
        self._counts: PairTable = {}
        self._relations: List[Relation] = []
        self._strengths: PairTable = {}
        self.counts_computed = 0
        self.counts_reused = 0

    def cluster(self, relations: Sequence[Relation] = (),
                exclude: AbstractSet[str] = frozenset(),
                now: Optional[int] = None,
                stale_after: Optional[int] = None) -> ClusterSet:
        """Cluster the arena's rows (stale-filtered under *now* and
        *stale_after*, minus the *exclude* files) with *relations*."""
        arena = self._arena
        fids = arena._fids
        dropped = frozenset(fids[path] for path in exclude if path in fids)
        rows = arena.neighbor_fids(now, stale_after, dropped)
        current = list(relations)
        strengths = self._strengths
        if current != self._relations:
            strengths = {}
            for relation in current:
                members = [arena.intern(path) for path in relation.files]
                for index, first in enumerate(members):
                    for second in members[index + 1:]:
                        for a, b in ((first, second), (second, first)):
                            row = strengths.setdefault(a, {})
                            row[b] = row.get(b, 0.0) + relation.strength
        clusters = self._pass(rows, strengths, arena._paths, arena._dirs)
        self._relations = current
        return clusters

    def _pass(self, rows: Dict[int, Set[int]], strengths: PairTable,
              paths: List[str], dirs: List[Tuple[str, ...]]) -> ClusterSet:
        parameters = self._parameters
        normalize = parameters.normalize_shared_counts
        near: float = parameters.kn
        far: float = parameters.kf
        if normalize:
            near, far = parameters.kn_fraction, parameters.kf_fraction
        cap = parameters.max_neighbors
        investigator_weight = parameters.investigator_weight
        directory_weight = parameters.directory_distance_weight

        def effective_count(a: int, b: int, neighbors_a: AbstractSet[int],
                            neighbors_b: AbstractSet[int],
                            strength: float) -> float:
            # As in Jarvis and Patrick, each file counts as a member of
            # its own list: one more per direction of mutual listing,
            # or projects smaller than kn files could never cluster.
            count = float(len(neighbors_a & neighbors_b)
                          + (b in neighbors_a) + (a in neighbors_b))
            if strength:
                count += investigator_weight * strength
            count -= directory_weight * tree_distance(dirs[a], dirs[b])
            if normalize:
                # The smaller non-empty list, capped at the table size;
                # 1 for a pair known only through investigators.
                size, other = len(neighbors_a), len(neighbors_b)
                if other and (other < size or not size):
                    size = other
                count /= float(size if size < cap else cap) if size else 1.0
            return count

        # One rule for every examined pair: reuse the stored count when
        # neither endpoint's set changed and the pair's strength equals
        # the previous build's (absent counts as 0.0).
        previous_rows, previous_counts = self._rows, self._counts
        previous_strengths = self._strengths
        changed = {fid for fid, neighbors in rows.items()
                   if previous_rows.get(fid) != neighbors}
        changed.update(fid for fid in previous_rows if fid not in rows)
        counts: PairTable = {}
        near_pairs: List[Tuple[int, int]] = []
        far_pairs: List[Tuple[int, int]] = []
        computed = reused = 0
        by_path = paths.__getitem__
        for a in sorted(rows, key=by_path):
            neighbors_a = rows[a]
            relation_row = strengths.get(a, _NO_ROW)
            previous_row = previous_strengths.get(a, _NO_ROW)
            # Only a row whose strengths moved checks them pair by pair.
            moved = (relation_row is not previous_row
                     and relation_row != previous_row)
            stored = None if a in changed else previous_counts.get(a)
            row_counts = counts[a] = {}
            for b in sorted(neighbors_a, key=by_path):
                if b == a:
                    continue
                strength = relation_row.get(b, 0.0) if relation_row else 0.0
                count = (stored.get(b) if stored is not None
                         and b not in changed else None)
                if count is not None and moved \
                        and strength != previous_row.get(b, 0.0):
                    count = None
                if count is None:
                    count = effective_count(
                        a, b, neighbors_a, rows.get(b, _NO_NEIGHBORS),
                        strength)
                    computed += 1
                else:
                    reused += 1
                row_counts[b] = count
                if count >= near:
                    near_pairs.append((a, b))
                elif count >= far:
                    far_pairs.append((a, b))
        # Investigated relationships are tested regardless of whether a
        # semantic distance is stored (section 3.3.3).
        relation_pairs = sorted(
            ((a, b) for a, row in strengths.items() for b in row
             if a != b and b not in rows.get(a, _NO_NEIGHBORS)),
            key=lambda pair: (paths[pair[0]], paths[pair[1]]))
        for a, b in relation_pairs:
            strength = strengths[a][b]
            count = None
            if a not in changed and b not in changed and strength == \
                    previous_strengths.get(a, _NO_ROW).get(b, 0.0):
                count = previous_counts.get(a, _NO_ROW).get(b)
            if count is None:
                count = effective_count(a, b, rows.get(a, _NO_NEIGHBORS),
                                        rows.get(b, _NO_NEIGHBORS), strength)
                computed += 1
            else:
                reused += 1
            counts.setdefault(a, {})[b] = count
            if count >= near:
                near_pairs.append((a, b))
            elif count >= far:
                far_pairs.append((a, b))
        self._rows, self._counts, self._strengths = rows, counts, strengths
        self.counts_computed, self.counts_reused = computed, reused

        members = set(rows).union(*rows.values())
        members.update(strengths)
        members.update(*strengths.values())
        files = sorted(members, key=by_path)
        parent = dict(zip(files, files))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # Phase 1: combine clusters for pairs sharing >= kn neighbors.
        for a, b in near_pairs:
            root_a, root_b = find(a), find(b)
            if root_a != root_b:
                parent[root_b] = root_a

        result = ClusterSet()
        root_of: Dict[int, int] = {}
        groups: Dict[int, List[str]] = {}
        for fid in files:
            root = root_of[fid] = find(fid)
            groups.setdefault(root, []).append(paths[fid])
        cluster_of_root = {root: result.new_cluster(groups[root])
                           for root in sorted(groups, key=by_path)}

        # Phase 2: overlap (but do not combine) clusters for pairs with
        # kf <= shared < kn, against the phase-1 roots, so processing
        # order cannot matter.
        for a, b in far_pairs:
            root_a, root_b = root_of[a], root_of[b]
            if root_a != root_b:
                result.add_member(cluster_of_root[root_b], paths[a])
                result.add_member(cluster_of_root[root_a], paths[b])
        result.deduplicate()
        return result
