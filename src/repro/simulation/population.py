"""Population grid cells: one machine's full SEER-vs-baseline scorecard.

Fleet-scale sweeps (ROADMAP item 5) push thousands of synthetic
machines through the parallel runner.  Checkpointing a full
:class:`~repro.simulation.missfree.MissFreeResult` plus
:class:`~repro.simulation.live.LiveResult` per machine would make the
grid join O(cells x windows); a ``population`` cell instead reduces
both measurements *inside the worker* to this flat scorecard, so checkpoint
payloads stay a few hundred bytes and population aggregation is
O(machines) no matter how long the traces run.

Each cell replays its generated trace once, through one
:class:`~repro.core.seer.Seer`, for two measurements:

* the **live replay** (:func:`~repro.simulation.live.simulate_live_usage`)
  drives the Seer through the machine's own calibrated disconnection
  schedule -- optionally under fault injection -- for the
  deployment-effectiveness measures of Tables 4-5 (failed
  disconnections, automatic detections, time to first miss);
* a **miss-free scorer** (:class:`~repro.simulation.missfree
  .MissFreeScorer` with every baseline enabled) rides the same record
  loop and scores SEER, strict LRU, SPY UTILITY and CODA over fixed
  simulated disconnection windows (paper section 5.2.1).

The observer's and correlator's state after a record depends on
neither measurement, so sharing the ingest changes no result: each
cell equals the two separate passes it replaced, byte for byte
(``tests/simulation/test_replay_equivalence.py`` checks them against
``tests/oracle/replay.py``).  The cell's ``metrics`` count the one
ingest.

CODA runs its bounded-age reading with *no hoard profiles*: the
paper's finding (section 6.2) is precisely that CODA's formula needs
ongoing hand management nobody performs, so the fleet-scale comparison
measures CODA the way a population would actually run it -- unmanaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.parameters import SeerParameters
from repro.simulation.live import simulate_live_usage
from repro.simulation.missfree import MissFreeScorer
# Kept as a module attribute only for benchmarks/e2e/tests/test_tracer.py.
from repro.simulation.missfree import simulate_miss_free  # noqa: F401
from repro.workload.generator import GeneratedTrace

__all__ = [
    "PopulationCellResult",
    "simulate_population_cell",
]


@dataclass(frozen=True)
class PopulationCellResult:
    """One machine's reduced scorecard (one ``population`` grid cell).

    Sizes are window means in bytes; effectiveness counts come from
    the live replay of the machine's own disconnection schedule.  The
    profile-level fields (``activity``, ``n_disconnections``,
    ``uses_investigators``) ride along so population reports can
    stratify without re-sampling profiles.
    """

    machine: str
    activity: float
    n_disconnections: int          # profile-level (full measured span)
    uses_investigators: bool
    hoard_budget: int
    window_seconds: float
    windows: int                   # evaluated miss-free windows
    referenced_files: int          # summed over evaluated windows
    mean_working_set: float
    mean_seer: float
    mean_lru: float
    mean_spy: float
    mean_coda: float
    disconnections: int            # replayed in the live pass
    failed_disconnections: int
    automatic_detections: int
    median_first_miss_hours: float  # 0.0 when no miss ever occurred
    # Ingestion-pipeline counters of the cell's one replay
    # (see repro.observability); surfaced by the CLI's --metrics flag.
    metrics: Optional[Dict[str, float]] = None

    @property
    def lru_to_seer_ratio(self) -> float:
        return self.mean_lru / self.mean_seer if self.mean_seer else 0.0

    @property
    def failure_rate(self) -> float:
        """Fraction of replayed disconnections that suffered a miss."""
        if self.disconnections == 0:
            return 0.0
        return self.failed_disconnections / self.disconnections


def _median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def simulate_population_cell(trace: GeneratedTrace,
                             window_seconds: float,
                             parameters: Optional[SeerParameters] = None,
                             use_investigators: bool = False,
                             size_seed: int = 0,
                             fault_profile: Optional[str] = None,
                             fault_seed: int = 0) -> PopulationCellResult:
    """Replay one machine's trace once and reduce it to a scorecard.

    Deterministic for a fixed trace and arguments: the replay consumes
    only seeded randomness, so the same cell computed serially, in a
    worker process, or restored from a checkpoint is byte-identical.
    """
    scorer = MissFreeScorer(trace, window_seconds,
                            use_investigators=use_investigators,
                            seed=size_seed, include_spy=True,
                            include_coda=True)
    live = simulate_live_usage(trace, parameters=parameters,
                               use_investigators=use_investigators,
                               size_seed=size_seed,
                               fault_profile=fault_profile,
                               fault_seed=fault_seed, scorer=scorer)
    miss = scorer.result
    first_miss: List[float] = live.first_miss_hours()
    return PopulationCellResult(
        machine=trace.machine.name,
        activity=trace.machine.activity,
        n_disconnections=trace.machine.n_disconnections,
        uses_investigators=use_investigators,
        hoard_budget=live.hoard_budget,
        window_seconds=window_seconds,
        windows=len(miss.windows),
        referenced_files=sum(w.referenced_files for w in miss.windows),
        mean_working_set=miss.mean_working_set,
        mean_seer=miss.mean_seer,
        mean_lru=miss.mean_lru,
        mean_spy=miss.mean_spy,
        mean_coda=miss.mean_coda,
        disconnections=len(live.outcomes),
        failed_disconnections=live.failures_any_severity(),
        automatic_detections=live.automatic_detections(),
        median_first_miss_hours=_median(first_miss),
        metrics=live.metrics,
    )
