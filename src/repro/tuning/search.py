"""One-dimensional sweeps over the SEER parameter space.

:func:`sweep_parameter` varies one :class:`SeerParameters` field and
holds the rest.  A value the dataclass rejects on construction
(kn_fraction <= kf_fraction, a non-finite float, ...) is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.parameters import SeerParameters
from repro.simulation.runner import ShardSpec, run_shards, spec_for_parameters
from repro.tuning.objective import (DAY, EvaluationResult, aggregate_scores,
                                   hoard_overhead_objective)


@dataclass
class SweepPoint:
    """One point of a single-parameter sweep."""

    value: object
    result: EvaluationResult


def _try_parameters(base: SeerParameters, changes: Dict) -> Optional[SeerParameters]:
    try:
        return base.with_changes(**changes)
    except (ValueError, TypeError):
        return None


def sweep_parameter(base: SeerParameters, name: str, values: Sequence,
                    machines: Sequence[str], seed: int, days: float,
                    window_seconds: float = DAY, jobs: int = 1,
                    checkpoint_dir: Optional[str] = None,
                    resume: bool = False, metrics=None,
                    progress=None) -> List[SweepPoint]:
    """Vary *name* over *values*, scoring each on every machine.

    The (value x machine) grid runs on the experiment runner
    (:mod:`repro.simulation.runner`), in-process at ``jobs=1``: each
    cell is a "missfree" shard keyed by the full parameter set, whose
    worker rebuilds the trace of (machine, *seed*, *days*), and this
    process scores each returned replay.  With a *checkpoint_dir* each
    cell is checkpointed in the sqlite store (docs/state-store.md) and
    the sweep resumes like any other.
    """
    specs: Dict[str, ShardSpec] = {}
    wanted = []   # (value, parameters, [(machine, shard_id), ...])
    for value in values:
        parameters = _try_parameters(base, {name: value})
        if parameters is None:
            continue
        cells = []
        for machine in machines:
            spec = spec_for_parameters(
                ShardSpec("missfree", machine, seed, days,
                          window_seconds=window_seconds),
                parameters)
            specs[spec.shard_id] = spec
            cells.append((machine, spec.shard_id))
        wanted.append((value, parameters, cells))
    outcomes = run_shards(list(specs.values()), jobs=jobs,
                          checkpoint_dir=checkpoint_dir, resume=resume,
                          metrics=metrics, progress=progress)
    scores = {outcome.spec.shard_id: hoard_overhead_objective(outcome.result)
              for outcome in outcomes}
    return [SweepPoint(value=value,
                       result=aggregate_scores(
                           parameters,
                           {machine: scores[sid] for machine, sid in cells}))
            for value, parameters, cells in wanted]
