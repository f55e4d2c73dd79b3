"""SEER's core: semantic distance, clustering, hoard selection.

This package implements the paper's primary contribution (sections 3
and parts of 4): the lifetime semantic distance (Definition 3), the
online geometric-mean data reduction, the bounded neighbor tables, the
per-process correlator, the modified Jarvis-Patrick shared-neighbor
clustering with external-information adjustment, and the
whole-projects-only hoard manager with miss accounting.
"""

from repro.core.arena import (
    ArenaStore,
    ArenaTable,
    ColumnarEngine,
    NeighborArena,
)
from repro.core.clustering import (
    ClusterSet,
    Relation,
    SharedNeighborPass,
)
from repro.core.correlator import Action, Correlator, ObservedReference
from repro.core.distance import DistanceSummary
from repro.core.hoard import (
    HoardManager,
    HoardMiss,
    HoardSelection,
    MissLog,
    MissSeverity,
    rank_clusters,
)
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.core.seer import Seer

__all__ = [
    "Action",
    "ArenaStore",
    "ArenaTable",
    "ClusterSet",
    "ColumnarEngine",
    "NeighborArena",
    "Correlator",
    "DEFAULT_PARAMETERS",
    "DistanceSummary",
    "HoardManager",
    "HoardMiss",
    "HoardSelection",
    "MissLog",
    "MissSeverity",
    "ObservedReference",
    "Relation",
    "Seer",
    "SeerParameters",
    "SharedNeighborPass",
    "rank_clusters",
]
