"""Population-level analysis: curves, confidence bands and strata.

The paper's evaluation reports nine machines one row at a time; a
fleet-scale sweep (ROADMAP item 5) produces thousands of reduced
:class:`~repro.simulation.population.PopulationCellResult` scorecards
instead.  This module turns a stream of those cells into one report:

* **population curves** -- each algorithm's per-machine mean miss-free
  hoard size as a function of population percentile, so "SEER needs
  less space than LRU" becomes a statement about a distribution, not
  an anecdote;
* **bootstrap confidence bands** -- 95 % percentile-bootstrap
  intervals on every headline mean, seeded and fully deterministic
  (the same aggregate renders the same bytes on every host and
  interpreter), drawn in bulk with numpy in bounded blocks;
* **strata** -- the same comparison cut by activity regime and by
  disconnection regime, including the machines that never disconnect.

Everything consumes the runner's streaming ``consume=`` callback, so
aggregating a population of N machines holds O(N) scorecards and no
window-level data.
"""

from __future__ import annotations

import dataclasses
import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.population import PopulationCellResult
from repro.simulation.runner import ShardOutcome
from repro.simulation.serde import result_from_data, result_to_data

MB = 1024 * 1024

#: Most uniform draws one block of resamples holds (8 MiB of float64).
#: A band draws whole resamples a block at a time, so its memory stays
#: bounded however many machines times resamples it needs.
BLOCK_VALUES = 1 << 20

#: The four ranked-hoard algorithms a population cell scores, in
#: report order, with the working set (the optimal bound) first.
_SIZE_COLUMNS: Tuple[Tuple[str, Callable[[PopulationCellResult], float]],
                     ...] = (
    ("working set", lambda c: c.mean_working_set),
    ("SEER", lambda c: c.mean_seer),
    ("LRU", lambda c: c.mean_lru),
    ("SPY", lambda c: c.mean_spy),
    ("CODA", lambda c: c.mean_coda),
)

#: Activity strata (MachineProfile.activity is the fraction of
#: connected time the simulated user is at the keyboard).
_ACTIVITY_STRATA: Tuple[Tuple[str, float, float], ...] = (
    ("light (<0.2)", 0.0, 0.2),
    ("moderate (0.2-0.5)", 0.2, 0.5),
    ("heavy (>=0.5)", 0.5, float("inf")),
)

#: Disconnection strata over the profile's full measured span; Table 3
#: spans 14-173, and the sampler adds a docked-laptop mixture at zero.
_DISCONNECTION_STRATA: Tuple[Tuple[str, int, int], ...] = (
    ("never (0)", 0, 1),
    ("occasional (1-49)", 1, 50),
    ("frequent (>=50)", 50, 1 << 62),
)


@dataclass
class PopulationAggregate:
    """Everything a population report needs, O(machines) in memory.

    Feed it to :func:`repro.simulation.runner.run_shards` as the
    ``consume=`` callback (via :meth:`consume`) so the grid join never
    materializes the outcome list.
    """

    population_seed: int
    days: float
    cells: List[PopulationCellResult] = field(default_factory=list)

    def consume(self, outcome: ShardOutcome) -> None:
        result = outcome.result
        if not isinstance(result, PopulationCellResult):
            raise TypeError(
                f"population aggregate fed a {type(result).__name__} "
                f"cell ({outcome.spec.shard_id}); the grid must be built "
                f"by population_grid")
        # Drop the per-cell metrics snapshot: the runner has already
        # absorbed the counters, and keeping N snapshots would defeat
        # the compact-scorecard memory contract.
        self.cells.append(dataclasses.replace(result, metrics=None))

    @property
    def machines(self) -> int:
        return len(self.cells)

    @property
    def window_seconds(self) -> float:
        return self.cells[0].window_seconds if self.cells else 0.0

    def column(self,
               extract: Callable[[PopulationCellResult], float]
               ) -> List[float]:
        return [extract(cell) for cell in self.cells]


# ----------------------------------------------------------------------
# aggregate persistence (the CLI's --save/--report handoff)
# ----------------------------------------------------------------------
def aggregate_to_data(aggregate: PopulationAggregate) -> Dict:
    """JSON-safe form of an aggregate, for ``population run --save``."""
    return {
        "population_seed": aggregate.population_seed,
        "days": aggregate.days,
        "cells": [result_to_data(cell) for cell in aggregate.cells],
    }


def aggregate_from_data(data: Dict) -> PopulationAggregate:
    """Inverse of :func:`aggregate_to_data`.

    Raises ``ValueError`` naming the field that is missing or has the
    wrong type, so a file that is not a saved aggregate gets a reason
    rather than a traceback.
    """
    if not isinstance(data, dict):
        raise ValueError(f"not a saved population aggregate: expected an "
                         f"object, got {type(data).__name__}")
    for name, types in (("population_seed", (int,)), ("days", (int, float)),
                        ("cells", (list,))):
        if name not in data:
            raise ValueError(f"missing field {name!r}")
        value = data[name]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ValueError(f"field {name!r} has the wrong type "
                             f"({type(value).__name__})")
    if not math.isfinite(data["days"]):
        raise ValueError(f"field 'days' is not finite ({data['days']})")
    cells: List[PopulationCellResult] = []
    for index, cell in enumerate(data["cells"]):
        result = None
        if isinstance(cell, dict):
            try:
                result = result_from_data(cell)
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(f"cells[{index}] is not a population "
                                 f"cell ({error!r})") from None
        if not isinstance(result, PopulationCellResult):
            raise ValueError(f"cells[{index}] is not a population cell")
        cells.append(result)
    return PopulationAggregate(population_seed=data["population_seed"],
                               days=data["days"], cells=cells)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


def bootstrap_band(values: Sequence[float], seed: int,
                   resamples: int = 1000,
                   confidence: float = 0.95) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean.

    Deterministic: the resampling stream is seeded (RL002), so the
    same values and seed produce the same band in every process.  The
    band is bit for bit the one a ``random.Random(seed)`` drawing
    ``choices(values, k=n)`` per resample gives (the oracle in
    ``tests/oracle/bootstrap.py``), for finite floats and for ints whose
    sums stay below 2**53:

    * numpy's legacy MT19937 starts from ``Random(seed)``'s state, and
      ``random_sample`` yields the same doubles as ``Random.random``;
    * each index is ``floor(u * n)``, as ``choices`` computes it;
    * each resample's total is summed left to right, one column at a
      time, as ``sum()`` did on Python 3.11 (numpy's ``sum`` is
      pairwise, and 3.12's ``sum()`` is compensated);
    * resamples are drawn in blocks of at most :data:`BLOCK_VALUES`
      values, which concatenate exactly since the stream is
      sequential.

    Raises ``ValueError`` unless ``resamples >= 1`` and ``0 <
    confidence < 1``.
    """
    return _band(values, seed, resamples, confidence, _generator())


def _generator() -> np.random.RandomState:
    """A generator for :func:`_band`, which overwrites its state; build
    one per report, since building it costs more than a small band."""
    return np.random.RandomState(0)


def _band(values: Sequence[float], seed: int, resamples: int,
          confidence: float,
          generator: np.random.RandomState) -> Tuple[float, float]:
    if resamples < 1:
        raise ValueError(f"resamples must be at least 1, got {resamples}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    _, key, _ = random.Random(seed).getstate()
    # A tuple key: set_state reads one an order of magnitude faster
    # than an ndarray key.
    generator.set_state(("MT19937", key[:-1], key[-1], 0, 0.0))
    n = len(values)
    pool = np.asarray(values, dtype=np.float64)
    per_block = max(1, BLOCK_VALUES // n)
    blocks: List[np.ndarray] = []
    for first in range(0, resamples, per_block):
        rows = min(per_block, resamples - first)
        draws = generator.random_sample((rows, n))
        draws *= n
        # The cast truncates, which is floor for these non-negative
        # products.
        sample = pool[draws.astype(np.intp)]
        totals = np.zeros(rows)
        for column in sample.T:
            totals += column
        blocks.append(totals / n)
    means = np.sort(np.concatenate(blocks), kind="stable").tolist()
    tail = (1.0 - confidence) / 2.0 * 100.0
    return percentile(means, tail), percentile(means, 100.0 - tail)


def band_seed(base_seed: int, label: str) -> int:
    """Per-column bootstrap seed, derived via crc32 (RL003-safe)."""
    key = f"bootstrap:{base_seed}:{label}".encode("utf-8")
    return zlib.crc32(key) & 0xFFFFFFFF


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# report sections
# ----------------------------------------------------------------------
def _bar(value: float, scale: float, width: int = 30) -> str:
    filled = int(round(value / scale * width)) if scale > 0 else 0
    return "#" * max(0, min(filled, width))


def _headline_section(aggregate: PopulationAggregate, seed: int,
                      resamples: int,
                      generator: np.random.RandomState) -> List[str]:
    lines = ["Mean miss-free hoard size, 95% bootstrap band "
             f"({resamples} resamples)", ""]
    seer_mean = _mean(aggregate.column(lambda c: c.mean_seer))
    for label, extract in _SIZE_COLUMNS:
        values = aggregate.column(extract)
        mean = _mean(values)
        low, high = _band(values, band_seed(seed, label), resamples,
                          0.95, generator)
        versus = ""
        if label not in ("working set", "SEER") and seer_mean > 0:
            versus = f"  ({mean / seer_mean:5.2f}x SEER)"
        lines.append(f"  {label:<12} {mean / MB:8.2f} MB   "
                     f"[{low / MB:8.2f}, {high / MB:8.2f}]{versus}")
    return lines


def _percentile_section(aggregate: PopulationAggregate) -> List[str]:
    steps = (5.0, 25.0, 50.0, 75.0, 95.0)
    header = "  " + f"{'percentile':<12}" + "".join(
        f"{f'p{step:g}':>10}" for step in steps)
    lines = ["Per-machine mean miss-free size percentiles (MB)", "",
             header]
    for label, extract in _SIZE_COLUMNS:
        values = aggregate.column(extract)
        cells = "".join(f"{percentile(values, step) / MB:10.2f}"
                        for step in steps)
        lines.append(f"  {label:<12}{cells}")
    return lines


def _curve_section(aggregate: PopulationAggregate) -> List[str]:
    """The population curve: size vs population percentile.

    Each row is one percentile of the population; S bars are SEER's
    size, L bars extend to LRU's at the same percentile -- the gap
    between them is the population-level version of Figure 2's
    per-machine gap.
    """
    seer = aggregate.column(lambda c: c.mean_seer)
    lru = aggregate.column(lambda c: c.mean_lru)
    scale = percentile(lru, 95.0) or 1.0
    lines = ["Population curve: miss-free size by population percentile",
             "(S = SEER, L = LRU's additional space at that percentile)",
             ""]
    for step in range(10, 100, 10):
        seer_at = percentile(seer, float(step))
        lru_at = percentile(lru, float(step))
        seer_bar = _bar(seer_at, scale).replace("#", "S")
        lru_bar = _bar(max(0.0, lru_at - seer_at), scale).replace("#", "L")
        lines.append(f"  p{step:<3}|{seer_bar}{lru_bar}  "
                     f"seer={seer_at / MB:7.2f}  lru={lru_at / MB:7.2f} MB")
    return lines


def _stratum_rows(aggregate: PopulationAggregate,
                  member: Callable[[PopulationCellResult], bool]
                  ) -> Optional[Tuple[int, float, float, float, float]]:
    cells = [cell for cell in aggregate.cells if member(cell)]
    if not cells:
        return None
    seer = _mean([c.mean_seer for c in cells])
    lru = _mean([c.mean_lru for c in cells])
    ratio = lru / seer if seer else 0.0
    failure = _mean([c.failure_rate for c in cells])
    return len(cells), seer, lru, ratio, failure


def _strata_section(aggregate: PopulationAggregate) -> List[str]:
    lines = ["Strata (count, mean SEER / LRU MB, LRU/SEER, "
             "failed-disconnection rate)", ""]
    lines.append("  by activity:")
    for label, low, high in _ACTIVITY_STRATA:
        row = _stratum_rows(aggregate,
                            lambda c, lo=low, hi=high: lo <= c.activity < hi)
        lines.append(_stratum_line(label, row))
    lines.append("  by disconnection regime:")
    for label, low, high in _DISCONNECTION_STRATA:
        row = _stratum_rows(
            aggregate,
            lambda c, lo=low, hi=high: lo <= c.n_disconnections < hi)
        lines.append(_stratum_line(label, row))
    return lines


def _stratum_line(label: str,
                  row: Optional[Tuple[int, float, float, float, float]]
                  ) -> str:
    if row is None:
        return f"    {label:<22} (no machines)"
    count, seer, lru, ratio, failure = row
    return (f"    {label:<22} n={count:<5} seer={seer / MB:7.2f}  "
            f"lru={lru / MB:7.2f}  ratio={ratio:5.2f}  "
            f"failures={failure:6.1%}")


def _effectiveness_section(aggregate: PopulationAggregate, seed: int,
                           resamples: int,
                           generator: np.random.RandomState) -> List[str]:
    disconnections = sum(c.disconnections for c in aggregate.cells)
    failed = sum(c.failed_disconnections for c in aggregate.cells)
    automatic = sum(c.automatic_detections for c in aggregate.cells)
    rates = aggregate.column(lambda c: c.failure_rate)
    low, high = _band(rates, band_seed(seed, "failure_rate"), resamples,
                      0.95, generator)
    first_miss = [c.median_first_miss_hours for c in aggregate.cells
                  if c.median_first_miss_hours > 0]
    lines = ["Deployment effectiveness (live replay of each machine's "
             "own schedule)", ""]
    lines.append(f"  disconnections replayed   {disconnections}")
    lines.append(f"  with at least one miss    {failed}")
    lines.append(f"  automatic detections      {automatic}")
    lines.append(f"  per-machine failure rate  {_mean(rates):6.1%}   "
                 f"[{low:6.1%}, {high:6.1%}]")
    if first_miss:
        lines.append(f"  median first miss         "
                     f"{percentile(first_miss, 50.0):.1f} active hours "
                     f"({len(first_miss)} machines with misses)")
    else:
        lines.append("  median first miss         (no misses recorded)")
    return lines


def render_population_report(aggregate: PopulationAggregate,
                             bootstrap_seed: int = 0,
                             resamples: int = 1000) -> str:
    """The full population report, deterministic byte-for-byte.

    Its six bands share one generator (see :func:`bootstrap_band`).
    """
    if not aggregate.cells:
        return "Population report: (no machines)"
    window = aggregate.window_seconds
    period = "daily" if window <= 2 * 86400 else "weekly"
    investigators = sum(1 for c in aggregate.cells if c.uses_investigators)
    zero = sum(1 for c in aggregate.cells if c.n_disconnections == 0)
    header = [
        f"Population report: {aggregate.machines} machines "
        f"(seed {aggregate.population_seed}), {aggregate.days:g} simulated "
        f"days, {period} windows",
        f"  investigators on {investigators} machines; {zero} machines "
        f"never disconnect",
    ]
    generator = _generator()
    sections = [
        header,
        _headline_section(aggregate, bootstrap_seed, resamples, generator),
        _percentile_section(aggregate),
        _curve_section(aggregate),
        _strata_section(aggregate),
        _effectiveness_section(aggregate, bootstrap_seed, resamples,
                               generator),
    ]
    return "\n\n".join("\n".join(section) for section in sections)
