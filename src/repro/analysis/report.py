"""One-call reproduction report.

:func:`run_reproduction` executes the whole evaluation -- miss-free
simulations (daily/weekly, with investigators where the paper used
them) and live-usage simulations for a chosen set of machines -- and
renders everything into a single text report with Tables 3-5 and
Figures 2-3, plus the headline comparisons.  This is what
``examples/full_reproduction.py`` and downstream users call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.analysis.figures import render_figure2, render_figure3
from repro.analysis.tables import (
    render_table1,
    render_table3,
    render_table4,
    render_table5,
)
from repro.simulation.live import LiveResult
from repro.simulation.missfree import MissFreeResult

if TYPE_CHECKING:
    from repro.observability import Metrics
    from repro.simulation.runner import ShardOutcome

DAY = 86400.0
WEEK = 7 * DAY
MB = 1024 * 1024


@dataclass
class ReproductionReport:
    """All results of one reproduction run."""

    machines: List[str]
    days: float
    seed: int
    missfree: List[MissFreeResult] = field(default_factory=list)
    live: List[LiveResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------
    # headline numbers
    # ------------------------------------------------------------------
    def lru_to_seer_ratios(self) -> Dict[str, float]:
        ratios: Dict[str, float] = {}
        for result in self.missfree:
            if result.windows and not result.use_investigators:
                key = f"{result.machine}-" + (
                    "daily" if result.window_seconds <= 2 * DAY else "weekly")
                ratios[key] = result.lru_to_seer_ratio
        return ratios

    def seer_overheads(self) -> Dict[str, float]:
        overheads: Dict[str, float] = {}
        for result in self.missfree:
            if result.windows and not result.use_investigators and \
                    result.mean_working_set:
                key = f"{result.machine}-" + (
                    "daily" if result.window_seconds <= 2 * DAY else "weekly")
                overheads[key] = result.mean_seer / result.mean_working_set
        return overheads

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        ratios = self.lru_to_seer_ratios()
        overheads = self.seer_overheads()
        lines = [
            "SEER reproduction report",
            "=" * 60,
            f"machines: {', '.join(self.machines)}   "
            f"days: {self.days:g}   seed: {self.seed}   "
            f"elapsed: {self.elapsed_seconds:.0f}s",
            "",
            "Headline (paper: SEER slightly above the working set; LRU",
            "worse by factors that can exceed 10:1):",
        ]
        for key in sorted(ratios):
            lines.append(f"  {key:<12} SEER/WS = {overheads.get(key, 0):.2f}x"
                         f"   LRU/SEER = {ratios[key]:.1f}x")
        lines += ["", render_table1(), ""]
        if self.live:
            lines += [render_table3(self.live), "",
                      render_table4(self.live), "",
                      render_table5(self.live), ""]
        if self.missfree:
            lines += [render_figure2(self.missfree), ""]
            weekly_f = [r for r in self.missfree
                        if r.window_seconds > 2 * DAY and
                        not r.use_investigators]
            if weekly_f:
                busiest = max(weekly_f,
                              key=lambda r: sum(w.referenced_files
                                                for w in r.windows))
                lines += [render_figure3(busiest), ""]
        return "\n".join(lines)


def run_reproduction(machines: Sequence[str] = ("C", "D", "F"),
                     days: float = 28.0, seed: int = 1,
                     include_live: bool = True,
                     include_investigators: bool = True,
                     progress: Optional[Callable[[str], None]] = None,
                     jobs: int = 1,
                     checkpoint_dir: Optional[str] = None,
                     resume: bool = False,
                     metrics: Optional[Metrics] = None,
                     fault_profile: Optional[str] = None,
                     fault_seed: int = 0) -> ReproductionReport:
    """Run the evaluation for *machines* and return the report.

    The (machine x period x simulator) grid runs on the parallel
    experiment runner: *jobs* worker processes, checkpoints in the
    sqlite store under *checkpoint_dir* (docs/state-store.md), and
    *resume* to restart an interrupted study recomputing only the
    missing cells.  Results are identical for every *jobs* value (see
    docs/parallel-runner.md).  Outcomes stream into
    the report at join -- with a checkpoint store the runner holds one
    cell in memory at a time, so a fleet-scale grid aggregates in
    O(machines) memory, not O(cells).  *fault_profile*/*fault_seed*
    turn on deterministic fault injection for the live cells
    (docs/fault-injection.md).
    """
    from repro.simulation.runner import reproduction_grid, run_shards
    report = ReproductionReport(machines=list(machines), days=days, seed=seed)
    start = time.perf_counter()
    shards = reproduction_grid(machines, days, seed,
                               include_live=include_live,
                               include_investigators=include_investigators,
                               fault_profile=fault_profile,
                               fault_seed=fault_seed)

    def consume(outcome: ShardOutcome) -> None:
        if outcome.spec.kind == "missfree":
            report.missfree.append(outcome.result)
        elif outcome.spec.kind == "live":
            report.live.append(outcome.result)

    run_shards(shards, jobs=jobs, checkpoint_dir=checkpoint_dir,
               resume=resume, metrics=metrics, progress=progress,
               consume=consume)
    report.elapsed_seconds = time.perf_counter() - start
    return report
