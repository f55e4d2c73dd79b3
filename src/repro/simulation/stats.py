"""Descriptive statistics.

The paper reports means, medians, standard deviations and ranges
(Tables 3 and 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SummaryStatistics:
    count: int
    total: float
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> SummaryStatistics:
    """Mean/median/std/min/max of *values* (sample std, ddof=1)."""
    data = sorted(float(v) for v in values)
    if not data:
        return SummaryStatistics(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    count = len(data)
    total = sum(data)
    mean = total / count
    middle = count // 2
    if count % 2:
        median = data[middle]
    else:
        median = (data[middle - 1] + data[middle]) / 2
    if count > 1:
        variance = sum((v - mean) ** 2 for v in data) / (count - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0
    return SummaryStatistics(count=count, total=total, mean=mean,
                             median=median, std=std,
                             minimum=data[0], maximum=data[-1])
