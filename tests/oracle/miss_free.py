"""The per-policy miss-free walks, kept as the shared walk's oracle.

Section 5.1.2's measure (rank what a policy would hoard, then sum
sizes down the ranking until every file the next period references is
covered) is one function in :mod:`repro.core.hoard`,
:func:`~repro.core.hoard.ranked_prefix_size`, and each policy supplies
only its ranking.  This module keeps the four bodies it replaced, each
walking its own ranking its own way:

* :func:`seer_miss_free_size` -- ``HoardManager.miss_free_size``:
  always-hoard files charged in sorted order, coverable files found by
  ``ClusterSet.clusters_of``, projects walked until those are covered;
* :func:`lru_miss_free_size` -- the recipe verbatim: locate the last
  marked file of the ranking, sum the prefix through it;
* :func:`coda_miss_free_size` -- the same recipe over CODA's ranking;
* :func:`spy_miss_free_size` -- the known set as the union of every
  tree, then trees walked until the coverable files are covered.

The rankings themselves (``rank_clusters``, ``lru_ranking``,
``CodaPriorityManager.ranking``, ``SpyUtilityManager.ranked_trees``)
are the shipped ones: only the walks moved.
``tests/core/test_ranked_prefix.py`` holds the shipped entry points
equal to these.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Set, Tuple

from repro.baselines.coda_priority import CodaPriorityManager
from repro.baselines.lru import lru_ranking
from repro.baselines.spy_utility import SpyUtilityManager
from repro.core.clustering import ClusterSet
from repro.core.hoard import SizeFunction, rank_clusters


def seer_miss_free_size(clusters: ClusterSet, sizes: SizeFunction,
                        recency: Mapping[str, float], needed: Set[str],
                        always_hoard: Iterable[str] = ()
                        ) -> Tuple[int, Set[str]]:
    """The miss-free hoard size under SEER's policy (section 5.1.2)."""
    hoarded: Set[str] = set()
    total = 0
    for path in sorted(set(always_hoard)):
        if path not in hoarded:
            hoarded.add(path)
            total += sizes(path)
    coverable = {path for path in needed
                 if clusters.clusters_of(path) or path in hoarded}
    remaining = set(coverable) - hoarded
    if not remaining:
        return total, needed - coverable
    for cluster_id in rank_clusters(clusters, recency):
        members = clusters.members(cluster_id)
        new_files = members - hoarded
        total += sum(sizes(path) for path in sorted(new_files))
        hoarded |= new_files
        remaining -= members
        if not remaining:
            break
    return total, needed - coverable


def lru_miss_free_size(recency: Mapping[str, float], needed: Set[str],
                       sizes: SizeFunction) -> Tuple[int, Set[str]]:
    """The section 5.1.2 recipe."""
    ranking = lru_ranking(recency)
    known = set(ranking)
    marked = needed & known
    if not marked:
        return 0, needed - known
    last_marked_index = max(index for index, path in enumerate(ranking)
                            if path in marked)
    prefix = ranking[:last_marked_index + 1]
    return sum(sizes(path) for path in prefix), needed - known


def coda_miss_free_size(coda: CodaPriorityManager, needed: Set[str],
                        sizes: SizeFunction) -> Tuple[int, Set[str]]:
    """The generalization of section 5.1.2's recipe to any ranking."""
    ranking = coda.ranking()
    known = set(ranking)
    marked = needed & known
    if not marked:
        return 0, needed - known
    last_index = max(index for index, path in enumerate(ranking)
                     if path in marked)
    return (sum(sizes(path) for path in ranking[:last_index + 1]),
            needed - known)


def spy_miss_free_size(spy: SpyUtilityManager, needed: Set[str],
                       sizes: SizeFunction) -> Tuple[int, Set[str]]:
    """The section 5.1.2 recipe generalized to tree ranking."""
    covered: Set[str] = set()
    total = 0
    known: Set[str] = set()
    for tree in spy.trees():
        known |= tree.files
    uncoverable = needed - known
    remaining = needed - uncoverable
    for tree in spy.ranked_trees():
        if not remaining:
            break
        new_files = tree.files - covered
        total += sum(sizes(path) for path in sorted(new_files))
        covered |= new_files
        remaining -= tree.files
    return total, uncoverable
