"""The pure-Python bootstrap loop, kept as the resampler's oracle.

:func:`repro.analysis.population.bootstrap_band` draws each band's
resamples in bulk with numpy.  This module keeps the loop it replaced:
one ``random.choices`` call per resample, every mean summed left to
right, the means sorted and cut at the two tails.  The sum is spelled
as an explicit loop because ``sum()`` of floats is compensated from
Python 3.12 on; this loop is what ``sum()`` computed on 3.11, where
the bands were first committed.
"""

from __future__ import annotations

import random
from typing import Sequence, Tuple

from repro.analysis.population import percentile


def bootstrap_band(values: Sequence[float], seed: int,
                   resamples: int = 1000,
                   confidence: float = 0.95) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean."""
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    rng = random.Random(seed)
    n = len(values)
    means = []
    for _ in range(resamples):
        total = 0.0
        for value in rng.choices(values, k=n):
            total += value
        means.append(total / n)
    means.sort()
    tail = (1.0 - confidence) / 2.0 * 100.0
    return percentile(means, tail), percentile(means, 100.0 - tail)
