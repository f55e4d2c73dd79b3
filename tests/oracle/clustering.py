"""The path-keyed Jarvis-Patrick pass, kept as the clustering oracle.

``repro.core`` clusters over arena fids
(:class:`~repro.core.clustering.SharedNeighborPass`).  This module keeps
the transcription it replaced: neighbor lists keyed by path, every
examined pair keyed by a tuple of paths, each count computed from the
two paths and their lists, with no reuse between builds.  It also
keeps two hooks only tests use: ``shared_count_override`` replaces the
raw shared count (the paper's Table 2 example states counts, not
lists), and ``directory_distance=`` supplies the directory term, which
is left out when it is ``None``.

:class:`OracleClustering` plugs this pass into a correlator in place
of its fid pass (see :func:`tests.oracle.engine.oracle_correlator`).
"""

from __future__ import annotations

from typing import (AbstractSet, Callable, Dict, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.core.arena import ArenaStore
from repro.core.clustering import ClusterSet, Relation
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.fs.paths import directory_distance
from tests.oracle.neighbors import NeighborStore

SharedCountFunction = Callable[[str, str], float]


class SharedNeighborClustering:
    """The modified Jarvis-Patrick algorithm over path-keyed lists.

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
                 shared_count_override: Optional[SharedCountFunction] = None
                 ) -> None:
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


class OracleClustering:
    """The correlator's clustering seam, served by the path-keyed pass.

    Each build reads the store's path-keyed neighbor lists, drops the
    excluded files and runs a fresh :class:`SharedNeighborClustering`
    with the real directory distance, so every examined pair counts as
    computed and none as reused.  *store* is the oracle's
    ``NeighborStore`` or a shipped correlator's ``ArenaStore``.
    """

    def __init__(self, store: Union[NeighborStore, ArenaStore],
                 parameters: SeerParameters = DEFAULT_PARAMETERS) -> None:
        self._store = store
        self._parameters = parameters
        self.counts_computed = 0
        self.counts_reused = 0

    def cluster(self, relations: Sequence[Relation] = (),
                exclude: AbstractSet[str] = frozenset(),
                now: Optional[int] = None,
                stale_after: Optional[int] = None) -> ClusterSet:
        neighbor_lists = {
            file: neighbors - exclude
            for file, neighbors in self._store.neighbor_lists(
                now, stale_after).items()
            if file not in exclude}
        build = SharedNeighborClustering(
            neighbor_lists, parameters=self._parameters, relations=relations,
            directory_distance=directory_distance)
        self.counts_computed = len(build.examined_pairs())
        return build.cluster()
