"""The simulation harness reproducing the paper's evaluation.

* :mod:`repro.simulation.missfree` -- the trace-driven miss-free
  hoard-size simulations of section 5.2.1 (Figures 2 and 3): replay a
  trace, cut it into fixed disconnection windows (24 hours or 7 days),
  and at each boundary compare the working set, SEER's clustering
  manager and strict LRU.
* :mod:`repro.simulation.live` -- the live-deployment measurements of
  section 5.2.2 (Tables 3-5): run the connectivity schedule, fill the
  hoard before each disconnection, count misses by severity and the
  time to first miss (active time only).
* :mod:`repro.simulation.stats` -- means, medians, and the 99 %
  confidence intervals the paper reports.

``SIM_PARAMETERS`` is the parameter set the harness uses: the paper's
published constants, with two scale corrections for a synthetic world
~100x smaller than the real deployments (a 5 % frequent-file threshold
in place of 1 %, and normalized clustering thresholds); both are
documented in DESIGN.md.
"""

from repro.core.parameters import SeerParameters
from repro.observer.control_file import ControlConfig
from repro.simulation.live import (
    DisconnectionOutcome,
    LiveResult,
    simulate_live_usage,
)
from repro.simulation.missfree import (
    MissFreeResult,
    WindowResult,
    simulate_miss_free,
)
from repro.simulation.population import (
    PopulationCellResult,
    simulate_population_cell,
)
from repro.simulation.stats import SummaryStatistics, ci99_halfwidth, summarize
from repro.simulation.runner import (
    RunStats,
    ShardOutcome,
    ShardSpec,
    execute_shard,
    figure2_grid,
    population_grid,
    reproduction_grid,
    run_shards,
)
from repro.simulation.store import (
    CheckpointEntry,
    CompactionStats,
    SqliteStore,
)

SIM_PARAMETERS = SeerParameters(
    frequent_file_fraction=0.05,
    frequent_file_minimum_accesses=500,
    normalize_shared_counts=True,
    kf_fraction=0.55,
)


def simulation_control() -> ControlConfig:
    """The administrator's control file for simulated deployments.

    Section 4.3: critical system files and directories are listed in a
    control file, left outside SEER's control, and always hoarded.  A
    real deployment lists the system binary and library directories
    there (they are small, and no machine is usable without them), so
    the simulated deployments do too.
    """
    config = ControlConfig()
    config.critical_prefixes |= {"/bin", "/lib"}
    return config

__all__ = [
    "CheckpointEntry",
    "CompactionStats",
    "DisconnectionOutcome",
    "LiveResult",
    "MissFreeResult",
    "PopulationCellResult",
    "RunStats",
    "SIM_PARAMETERS",
    "ShardOutcome",
    "ShardSpec",
    "SqliteStore",
    "SummaryStatistics",
    "WindowResult",
    "ci99_halfwidth",
    "execute_shard",
    "figure2_grid",
    "population_grid",
    "reproduction_grid",
    "run_shards",
    "simulate_live_usage",
    "simulate_miss_free",
    "simulate_population_cell",
    "summarize",
]
