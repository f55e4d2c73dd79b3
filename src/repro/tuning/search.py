"""Grid and random search over the SEER parameter space.

Both searchers take a base :class:`SeerParameters`, a space
description (parameter name -> candidate values or (low, high)
ranges), and the traces to score against.  Invalid combinations
(kn <= kf, etc.) are skipped rather than raised, since the dataclass
validates on construction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.parameters import SeerParameters
from repro.tuning.objective import (
    DAY,
    EvaluationResult,
    aggregate_scores,
    evaluate_parameters,
)
from repro.workload.generator import GeneratedTrace

Candidates = Sequence
Range = Tuple[float, float]


@dataclass
class SweepPoint:
    """One point of a single-parameter sweep."""

    value: object
    result: EvaluationResult


@dataclass
class SearchOutcome:
    """Everything a search evaluated, best first."""

    evaluations: List[EvaluationResult] = field(default_factory=list)
    skipped_invalid: int = 0

    @property
    def best(self) -> EvaluationResult:
        if not self.evaluations:
            raise ValueError("search evaluated nothing")
        return min(self.evaluations)

    def ranked(self) -> List[EvaluationResult]:
        return sorted(self.evaluations)


def _try_parameters(base: SeerParameters, changes: Dict) -> Optional[SeerParameters]:
    try:
        return base.with_changes(**changes)
    except (ValueError, TypeError):
        return None


class GridSearch:
    """Exhaustive search over the cross product of candidate values."""

    def __init__(self, base: SeerParameters, space: Dict[str, Candidates],
                 window_seconds: float = DAY) -> None:
        self.base = base
        self.space = {name: list(values) for name, values in space.items()}
        self.window_seconds = window_seconds

    def point_count(self) -> int:
        count = 1
        for values in self.space.values():
            count *= len(values)
        return count

    def run(self, traces: Sequence[GeneratedTrace]) -> SearchOutcome:
        outcome = SearchOutcome()
        names = list(self.space)
        for combination in itertools.product(*(self.space[n] for n in names)):
            changes = dict(zip(names, combination))
            parameters = _try_parameters(self.base, changes)
            if parameters is None:
                outcome.skipped_invalid += 1
                continue
            outcome.evaluations.append(evaluate_parameters(
                parameters, traces, self.window_seconds))
        return outcome


class RandomSearch:
    """Uniform random search over value lists and numeric ranges."""

    def __init__(self, base: SeerParameters,
                 space: Dict[str, Union[Candidates, Range]],
                 samples: int = 20, seed: int = 0,
                 window_seconds: float = DAY) -> None:
        self.base = base
        self.space = dict(space)
        self.samples = samples
        self.window_seconds = window_seconds
        self._rng = random.Random(seed)

    def _draw(self, spec) -> object:
        if isinstance(spec, tuple) and len(spec) == 2 and \
                all(isinstance(v, (int, float)) for v in spec):
            low, high = spec
            if isinstance(low, int) and isinstance(high, int):
                return self._rng.randint(low, high)
            return self._rng.uniform(low, high)
        return self._rng.choice(list(spec))

    def run(self, traces: Sequence[GeneratedTrace]) -> SearchOutcome:
        outcome = SearchOutcome()
        for _ in range(self.samples):
            changes = {name: self._draw(spec)
                       for name, spec in self.space.items()}
            parameters = _try_parameters(self.base, changes)
            if parameters is None:
                outcome.skipped_invalid += 1
                continue
            outcome.evaluations.append(evaluate_parameters(
                parameters, traces, self.window_seconds))
        return outcome


def sweep_parameter(base: SeerParameters, name: str, values: Candidates,
                    traces: Sequence[GeneratedTrace],
                    window_seconds: float = DAY, jobs: int = 1,
                    checkpoint_dir: Optional[str] = None,
                    resume: bool = False, metrics=None,
                    progress=None) -> List[SweepPoint]:
    """One-dimensional sweep: vary *name*, hold everything else.

    With ``jobs > 1`` or a ``checkpoint_dir``, the (value x machine)
    grid runs on the parallel experiment runner
    (:mod:`repro.simulation.runner`): each cell is an "objective" shard
    keyed by the full parameter set, checkpointed in the sqlite store
    (docs/state-store.md) and resumable like any other sweep.  Workers
    rebuild each trace from its (machine, seed, days) identity, so this
    path expects traces produced by
    :func:`~repro.workload.generate_machine_trace` with default
    generation knobs -- which is what the CLI feeds it.
    """
    candidates = [(value, _try_parameters(base, {name: value}))
                  for value in values]
    valid = [(value, p) for value, p in candidates if p is not None]
    if jobs <= 1 and not checkpoint_dir:
        return [SweepPoint(value=value,
                           result=evaluate_parameters(p, traces,
                                                      window_seconds))
                for value, p in valid]

    from repro.simulation.runner import (
        ShardSpec,
        run_shards,
        spec_for_parameters,
    )
    specs: Dict[str, ShardSpec] = {}
    wanted = []   # (value, parameters, [(machine, shard_id), ...])
    for value, parameters in valid:
        cells = []
        for trace in traces:
            spec = spec_for_parameters(
                ShardSpec("objective", trace.machine.name, trace.seed,
                          trace.days, window_seconds=window_seconds),
                parameters)
            specs[spec.shard_id] = spec
            cells.append((trace.machine.name, spec.shard_id))
        wanted.append((value, parameters, cells))
    outcomes = run_shards(list(specs.values()), jobs=jobs,
                          checkpoint_dir=checkpoint_dir, resume=resume,
                          metrics=metrics, progress=progress)
    scores = {outcome.spec.shard_id: outcome.result for outcome in outcomes}
    return [SweepPoint(value=value,
                       result=aggregate_scores(
                           parameters,
                           {machine: scores[sid] for machine, sid in cells}))
            for value, parameters, cells in wanted]
