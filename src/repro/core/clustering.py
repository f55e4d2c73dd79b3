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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters


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


SharedCountFunction = Callable[[str, str], float]


class SharedNeighborClustering:
    """The modified Jarvis-Patrick algorithm.

    ``neighbor_lists`` maps each file to the set of files in its
    relation list (its bounded neighbor table).  The pair (F, G) is
    *examined* when G appears in F's list -- a blank entry in Table 2's
    sense means the pair is never considered, even if they share
    neighbors.  External relations add examined pairs of their own.
    """

    def __init__(self, neighbor_lists: Dict[str, Set[str]],
                 parameters: SeerParameters = DEFAULT_PARAMETERS,
                 relations: Sequence[Relation] = (),
                 directory_distance: Optional[Callable[[str, str], float]] = None,
                 shared_count_override: Optional[SharedCountFunction] = None) -> None:
        self._neighbors = neighbor_lists
        self._parameters = parameters
        self._relations = list(relations)
        self._directory_distance = directory_distance
        self._override = shared_count_override
        self._relation_strength: Dict[Tuple[str, str], float] = {}
        for relation in self._relations:
            for index, first in enumerate(relation.files):
                for second in relation.files[index + 1:]:
                    for pair in ((first, second), (second, first)):
                        self._relation_strength[pair] = (
                            self._relation_strength.get(pair, 0.0) + relation.strength)

    # ------------------------------------------------------------------
    # shared-neighbor counting
    # ------------------------------------------------------------------
    def raw_shared_count(self, file_a: str, file_b: str) -> int:
        """Shared-neighbor count with no external adjustments.

        As in Jarvis and Patrick's original formulation, each point is
        counted as a member of its own neighbor list, so two files that
        list *each other* get credit for it: the count is
        ``|N(a) & N(b)|`` plus one for each direction of mutual
        listing.  Without this, projects smaller than kn files could
        never cluster.
        """
        neighbors_a = self._neighbors.get(file_a, set())
        neighbors_b = self._neighbors.get(file_b, set())
        count = len(neighbors_a & neighbors_b)
        if file_b in neighbors_a:
            count += 1
        if file_a in neighbors_b:
            count += 1
        return count

    def shared_count(self, file_a: str, file_b: str) -> float:
        """Adjusted shared-neighbor count (section 3.3.3)."""
        if self._override is not None:
            count = self._override(file_a, file_b)
        else:
            count = float(self.raw_shared_count(file_a, file_b))
        strength = self._relation_strength.get((file_a, file_b), 0.0)
        if strength:
            count += self._parameters.investigator_weight * strength
        if self._directory_distance is not None:
            count -= (self._parameters.directory_distance_weight
                      * self._directory_distance(file_a, file_b))
        return count

    def _denominator(self, file_a: str, file_b: str) -> float:
        """Normalization denominator: the smaller relation-list size,
        capped at the table capacity; 1 for pairs known only through
        investigators (so strong relations still dominate)."""
        size_a = len(self._neighbors.get(file_a, ()))
        size_b = len(self._neighbors.get(file_b, ()))
        candidates = [s for s in (size_a, size_b) if s > 0]
        if not candidates:
            return 1.0
        return float(min(min(candidates), self._parameters.max_neighbors))

    def effective_count(self, file_a: str, file_b: str) -> float:
        """The value actually compared against the thresholds."""
        count = self.shared_count(file_a, file_b)
        if self._parameters.normalize_shared_counts:
            return count / self._denominator(file_a, file_b)
        return count

    @property
    def relation_strength(self) -> Dict[Tuple[str, str], float]:
        """Oriented relation-pair strengths (both orientations present).

        Exposed for the incremental reclusterer, which must replay
        relation pairs in exactly this structure's order.
        """
        return self._relation_strength

    def examined_pairs(self) -> List[Tuple[str, str]]:
        """Ordered (from, to) pairs the algorithm will test."""
        pairs: List[Tuple[str, str]] = []
        seen: Set[Tuple[str, str]] = set()
        for file in sorted(self._neighbors):
            for other in sorted(self._neighbors[file]):
                if other == file:
                    continue
                pair = (file, other)
                if pair not in seen:
                    seen.add(pair)
                    pairs.append(pair)
        # Investigated relationships are tested regardless of whether a
        # semantic distance is stored (section 3.3.3).
        for first, second in sorted(self._relation_strength):
            if first != second and (first, second) not in seen:
                seen.add((first, second))
                pairs.append((first, second))
        return pairs

    # ------------------------------------------------------------------
    # the two phases
    # ------------------------------------------------------------------
    def cluster(self) -> ClusterSet:
        """Run both phases and return the final overlapping clusters."""
        files: List[str] = sorted(
            set(self._neighbors)
            | {n for ns in self._neighbors.values() for n in ns}
            | {f for pair in self._relation_strength for f in pair})
        parent: Dict[str, str] = {file: file for file in files}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: str, b: str) -> None:
            root_a, root_b = find(a), find(b)
            if root_a != root_b:
                parent[root_b] = root_a

        pairs = self.examined_pairs()
        counts = {pair: self.effective_count(*pair) for pair in pairs}
        if self._parameters.normalize_shared_counts:
            near = self._parameters.kn_fraction
            far = self._parameters.kf_fraction
        else:
            near, far = self._parameters.kn, self._parameters.kf

        # Phase 1: combine clusters for pairs sharing >= kn neighbors.
        for pair in pairs:
            if counts[pair] >= near:
                union(*pair)

        result = ClusterSet()
        groups: Dict[str, List[str]] = {}
        for file in files:
            groups.setdefault(find(file), []).append(file)
        cluster_of_root: Dict[str, int] = {}
        for root, members in sorted(groups.items()):
            cluster_of_root[root] = result.new_cluster(members)

        # Phase 2: overlap (but do not combine) clusters for pairs with
        # kf <= shared < kn.  Additions are computed against the
        # phase-1 membership so processing order cannot matter.
        additions: List[Tuple[int, str]] = []
        for (file, other) in pairs:
            count = counts[(file, other)]
            if far <= count < near:
                if find(file) == find(other):
                    continue  # already in the same cluster
                additions.append((cluster_of_root[find(other)], file))
                additions.append((cluster_of_root[find(file)], other))
        for cluster_id, file in additions:
            result.add_member(cluster_id, file)
        result.deduplicate()
        return result
