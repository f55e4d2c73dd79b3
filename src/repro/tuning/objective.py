"""Objectives for the parameter search.

The quantity SEER's authors tuned for is hoarding quality: the hoard
should be as close as possible to the working set while still
covering it.  :func:`hoard_overhead_objective` scores one machine's
miss-free replay under a parameter set by SEER's mean overhead (hoard
size / working set), and :func:`aggregate_scores` averages that over
machines -- lower is better, 1.0 is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.parameters import SeerParameters
from repro.simulation.missfree import MissFreeResult

DAY = 86400.0


@dataclass
class EvaluationResult:
    """One parameter set's score across machines."""

    parameters: SeerParameters
    score: float                       # lower is better
    per_machine: Dict[str, float] = field(default_factory=dict)


def hoard_overhead_objective(result: MissFreeResult) -> float:
    """Mean SEER hoard size relative to the working set (>= ~1.0);
    infinite for a replay with no scored window."""
    if not result.windows or result.mean_working_set == 0:
        return float("inf")
    return result.mean_seer / result.mean_working_set


def aggregate_scores(parameters: SeerParameters,
                     per_machine: Dict[str, float]) -> EvaluationResult:
    """Fold per-machine objective values into one evaluation.

    The score is the unweighted mean (the paper tuned for "good
    results for all users", so no machine is allowed to dominate); an
    empty mapping scores infinite.
    """
    values = list(per_machine.values())
    score = sum(values) / len(values) if values else float("inf")
    return EvaluationResult(parameters=parameters, score=score,
                            per_machine=per_machine)

