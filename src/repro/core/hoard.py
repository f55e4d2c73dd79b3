"""Hoard management: project selection and hoard-miss accounting.

When new hoard contents are chosen, SEER ranks the projects (clusters)
by how recently they were active and selects the highest-priority
projects until the maximum hoard size is reached.  Only complete
projects are hoarded, under the assumption that a partial project is
not sufficient to make progress (section 2).  Certain files bypass the
clustering decision entirely (sections 4.2, 4.3, 4.6): frequently
referenced files, critical/control files, and non-file objects are
always included.

Hoard misses (section 4.4) are recorded with the paper's five-level
severity scale, both manually (the user-run recording program) and
automatically (an access to a file known to exist but absent from the
hoard).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (AbstractSet, Callable, Collection, Iterable, List, Mapping,
                    Optional, Set, Tuple)

from repro.core.clustering import ClusterSet

SizeFunction = Callable[[str], int]


class MissSeverity(enum.IntEnum):
    """Section 4.4's user-specified severity codes."""

    COMPUTER_UNUSABLE = 0   # critical startup file unavailable
    TASK_CHANGED = 1        # primary file for the task not hoarded
    ACTIVITY_MODIFIED = 2   # same task, different activity
    LITTLE_TROUBLE = 3      # little or no trouble
    PRELOAD_ONLY = 4        # not needed now; preload for the future


@dataclass
class HoardMiss:
    """One recorded hoard miss."""

    path: str
    time: float
    severity: Optional[MissSeverity] = None  # None for automatic detections
    automatic: bool = False


@dataclass
class HoardSelection:
    """The outcome of one hoard-filling decision."""

    files: Set[str] = field(default_factory=set)
    total_bytes: int = 0
    budget: int = 0
    clusters_included: List[int] = field(default_factory=list)
    clusters_skipped: List[int] = field(default_factory=list)
    always_hoarded: Set[str] = field(default_factory=set)

    def __contains__(self, path: str) -> bool:
        return path in self.files

    @property
    def utilization(self) -> float:
        return self.total_bytes / self.budget if self.budget else 0.0


ACTIVITY_DEPTH = 3


def cluster_activity(members: Iterable[str],
                     recency: Mapping[str, float]) -> float:
    """How recently a project was *actively* used.

    A project is active when several of its members are recent, not
    when one stray reference (a one-off browse, a find hit) touched a
    single file.  We use the ACTIVITY_DEPTH-th most recent member
    reference (or the oldest for projects smaller than that), which a
    real attention shift reaches within the first burst of work but a
    single stray reference never moves.
    """
    values = sorted((recency.get(member, float("-inf")) for member in members),
                    reverse=True)
    if not values:
        return float("-inf")
    return values[min(ACTIVITY_DEPTH - 1, len(values) - 1)]


def rank_clusters(clusters: ClusterSet, recency: Mapping[str, float]) -> List[int]:
    """Order cluster ids by priority: most recently active first.

    Ties are broken toward smaller clusters (cheaper to include), then
    by id for determinism.
    """
    def priority(cluster_id: int) -> Tuple[float, int, int]:
        members = clusters.members(cluster_id)
        return (-cluster_activity(members, recency), len(members), cluster_id)

    return sorted(clusters.cluster_ids(), key=priority)


def ranked_prefix_size(ranking: Iterable[Collection[str]],
                       needed: AbstractSet[str], sizes: SizeFunction,
                       charged: AbstractSet[str] = frozenset()
                       ) -> Tuple[int, Set[str]]:
    """Section 5.1.2's miss-free hoard size over any policy's ranking.

    *ranking* is what the policy would hoard, highest priority first,
    as groups it hoards whole (a project, an access tree, or one file).
    Returns the bytes of *charged* plus those of the shortest prefix of
    groups that covers *needed* -- a charged file costs nothing more --
    and the needed files that neither holds.  Those are uncoverable:
    no hoard the policy builds could contain them.
    """
    remaining = set(needed).difference(charged)
    walked: List[Collection[str]] = []
    prefix = 0   # groups through the last one that covered a needed file
    for group in ranking:
        if not remaining:
            break
        walked.append(group)
        if not remaining.isdisjoint(group):
            remaining.difference_update(group)
            prefix = len(walked)
    return sum(map(sizes, set(charged).union(*walked[:prefix]))), remaining


class HoardManager:
    """Builds hoard selections from cluster assignments."""

    def build(self, clusters: ClusterSet, sizes: SizeFunction,
              recency: Mapping[str, float], budget: int,
              always_hoard: Iterable[str] = ()) -> HoardSelection:
        """Choose hoard contents within *budget* bytes.

        Always-hoard files are charged first; then whole projects are
        added in priority order.  A project that does not fit is
        skipped (not truncated), preserving the complete-projects-only
        rule.
        """
        selection = HoardSelection(budget=budget)
        for path in sorted(set(always_hoard)):
            size = sizes(path)
            if path not in selection.files:
                selection.files.add(path)
                selection.always_hoarded.add(path)
                selection.total_bytes += size

        for cluster_id in rank_clusters(clusters, recency):
            members = clusters.members(cluster_id)
            new_files = sorted(members - selection.files)
            added_bytes = sum(sizes(path) for path in new_files)
            if selection.total_bytes + added_bytes <= budget:
                selection.files.update(new_files)
                selection.total_bytes += added_bytes
                selection.clusters_included.append(cluster_id)
            else:
                selection.clusters_skipped.append(cluster_id)
        return selection

    def miss_free_size(self, clusters: ClusterSet, sizes: SizeFunction,
                       recency: Mapping[str, float], needed: Set[str],
                       always_hoard: Iterable[str] = ()) -> Tuple[int, Set[str]]:
        """The miss-free hoard size under SEER's policy (section 5.1.2).

        Always-hoard files are charged first; then projects are walked
        in priority order until every file in *needed* that SEER knows
        about is covered (:func:`ranked_prefix_size`).  Files absent
        from every cluster and from the always-hoard set (never seen
        before the disconnection) are returned as uncoverable.
        """
        return ranked_prefix_size(
            map(clusters.members, rank_clusters(clusters, recency)),
            needed, sizes, charged=frozenset(always_hoard))


class MissLog:
    """Records hoard misses, manual and automatic (section 4.4)."""

    def __init__(self) -> None:
        self._misses: List[HoardMiss] = []

    def record_manual(self, path: str, time: float,
                      severity: MissSeverity) -> HoardMiss:
        """The user-run recording program: logs the miss and arranges
        for the file to be hoarded at the next reconnection."""
        miss = HoardMiss(path=path, time=time, severity=MissSeverity(severity))
        self._misses.append(miss)
        return miss

    def record_automatic(self, path: str, time: float) -> HoardMiss:
        """Automated detection: an access to a file known to exist but
        absent from the hoard."""
        miss = HoardMiss(path=path, time=time, automatic=True)
        self._misses.append(miss)
        return miss

    @property
    def misses(self) -> List[HoardMiss]:
        return list(self._misses)

    def manual_misses(self) -> List[HoardMiss]:
        return [m for m in self._misses if not m.automatic]

    def by_severity(self, severity: MissSeverity) -> List[HoardMiss]:
        return [m for m in self._misses if m.severity == severity]

    def paths_to_hoard(self) -> Set[str]:
        """Files whose misses were recorded; hoarded at reconnection."""
        return {m.path for m in self._misses}

    def first_miss_time(self) -> Optional[float]:
        if not self._misses:
            return None
        return min(m.time for m in self._misses)

    def clear(self) -> None:
        self._misses.clear()

    def __len__(self) -> int:
        return len(self._misses)
