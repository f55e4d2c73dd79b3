"""SEER's core: semantic distance, clustering, hoard selection.

This package implements the paper's primary contribution (sections 3
and parts of 4): the three semantic-distance definitions, the online
geometric-mean data reduction, the bounded neighbor tables, the
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
    SharedNeighborClustering,
)
from repro.core.correlator import Action, Correlator, ObservedReference
from repro.core.distance import (
    DistanceSummary,
    RefKind,
    Reference,
    SequenceDistanceCalculator,
    opens,
    temporal_distances,
)
from repro.core.hoard import (
    HoardManager,
    HoardMiss,
    HoardSelection,
    MissLog,
    MissSeverity,
    rank_clusters,
)
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.core.recluster import IncrementalClusterer
from repro.core.seer import Seer

__all__ = [
    "Action",
    "ArenaStore",
    "ArenaTable",
    "ClusterSet",
    "ColumnarEngine",
    "IncrementalClusterer",
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
    "RefKind",
    "Reference",
    "Relation",
    "Seer",
    "SeerParameters",
    "SequenceDistanceCalculator",
    "SharedNeighborClustering",
    "opens",
    "rank_clusters",
    "temporal_distances",
]
