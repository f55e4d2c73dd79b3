"""Tunable parameters of SEER's algorithms (paper section 4.9).

The paper reports devoting significant effort to searching the
parameter space; the defaults below are the published values where the
paper gives them (n = 20, M = 100, 1 % frequent-file threshold) and
reasonable settled values elsewhere.  Everything is collected in one
frozen dataclass so experiments and ablations can sweep them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class SeerParameters:
    """All knobs of the observer/correlator/clustering pipeline."""

    # --- semantic-distance heuristic (section 3.1.3) ---
    max_neighbors: int = 20          # n: distances kept per file
    lookback_window: int = 100       # M: references eligible for update
    compensation_distance: int = 100  # value inserted for distances > M
    aging_threshold: int = 5000      # references after which an entry may
                                     # be evicted regardless of distance
    stale_link_cutoff: int = 0       # if > 0, neighbor entries not
                                     # reinforced within this many
                                     # references are ignored at
                                     # clustering time (aging, sec 3.1.3)

    # --- data reduction (section 3.1.2) ---
    use_geometric_mean: bool = True  # False -> arithmetic mean (ablation)

    # --- clustering (section 3.3.2) ---
    kn: int = 4                      # shared neighbors to combine clusters
    kf: int = 2                      # shared neighbors to overlap clusters
    directory_distance_weight: float = 1.0    # subtracted (section 3.3.3)
    investigator_weight: float = 1.0          # added (section 3.3.3)
    # Normalized thresholds: compare the shared count divided by the
    # smaller table size against kn_fraction/kf_fraction instead of the
    # absolute kn/kf.  This makes one threshold serve both a 5-file
    # mail project and a 25-file program, at the cost of departing from
    # the paper's absolute formulation; the simulation harness enables
    # it (our synthetic world is ~100x smaller than the deployments the
    # paper tuned its absolute constants on, section 4.9).
    normalize_shared_counts: bool = False
    kn_fraction: float = 0.67
    kf_fraction: float = 0.45

    # --- observer filters ---
    frequent_file_fraction: float = 0.01   # 1 % rule (section 4.2)
    frequent_file_minimum_accesses: int = 1000  # before the rule engages
    meaningless_touch_ratio: float = 0.5   # threshold heuristic (sec. 4.1)
    meaningless_min_potential: int = 20    # don't judge tiny samples
    delete_delay: int = 50                 # deletions retained (section 4.8)

    # --- live-measurement conventions (section 5.1.1) ---
    minimum_disconnection_seconds: float = 15 * 60.0  # 15-minute squash

    def __post_init__(self) -> None:
        # NaN would slip through every comparison below.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{spec.name} must be finite, got {value}")
        if self.kn <= self.kf:
            raise ValueError(f"kn ({self.kn}) must exceed kf ({self.kf})")
        if self.max_neighbors < 1:
            raise ValueError("max_neighbors must be positive")
        if self.lookback_window < 1:
            raise ValueError("lookback_window must be positive")
        if not 0.0 < self.frequent_file_fraction <= 1.0:
            raise ValueError("frequent_file_fraction must be in (0, 1]")
        if self.kn_fraction <= self.kf_fraction:
            raise ValueError(f"kn_fraction ({self.kn_fraction}) must exceed "
                             f"kf_fraction ({self.kf_fraction})")

    def with_changes(self, **changes: object) -> "SeerParameters":
        """Return a copy with *changes* applied (for parameter sweeps)."""
        return replace(self, **changes)


DEFAULT_PARAMETERS = SeerParameters()
