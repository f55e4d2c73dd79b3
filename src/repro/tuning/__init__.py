"""Parameter-space search (paper section 4.9).

"The correct settings for these parameters are not obvious, and
interactions among them are complex and difficult to predict...  we
found it necessary to devote significant effort to searching the
parameter space for the values that would produce good results for all
users."  This package is that search harness: a one-dimensional sweep
over a :class:`~repro.core.parameters.SeerParameters` field, run on the
experiment runner and scored by the miss-free hoard-size simulation
across one or more machines (``python -m repro sweep``).
"""

from repro.tuning.objective import (
    EvaluationResult,
    aggregate_scores,
    hoard_overhead_objective,
)
from repro.tuning.search import SweepPoint, sweep_parameter

__all__ = [
    "EvaluationResult",
    "SweepPoint",
    "aggregate_scores",
    "hoard_overhead_objective",
    "sweep_parameter",
]
