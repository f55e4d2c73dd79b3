"""Order statistics shared by the workloads, the report and ``compare``.

Timings are reported as a median plus the highest percentile that the
sample count can support: a percentile is only meaningful when at
least :data:`TAIL_SAMPLES` samples lie beyond it, so a run with 120
fill requests reports p90, not a p99 resting on one sample.
"""

from __future__ import annotations

import math
import statistics
from typing import List, NamedTuple, Optional, Sequence

#: Percentiles the tail helper may report, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


class Tail(NamedTuple):
    """The highest supportable percentile of a sample set."""

    percentile: Optional[float]   # None: too few samples for any rung
    value: float
    samples: int


def _rank(pct: float, count: int) -> int:
    """1-based nearest rank of *pct* among *count* sorted samples."""
    # Rounded first so that, say, p90 of 100 samples is rank 90 and not
    # 91 through 0.9 * 100 == 90.00000000000001.
    return min(count, max(1, math.ceil(round(pct * count / 100.0, 9))))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 for an empty set)."""
    if not samples:
        return 0.0
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def tail(samples: Sequence[float]) -> Tail:
    """The highest ladder percentile with >= TAIL_SAMPLES beyond it."""
    count = len(samples)
    for pct in reversed(PERCENTILE_LADDER):
        if count and count - _rank(pct, count) >= TAIL_SAMPLES:
            return Tail(pct, percentile(samples, pct), count)
    return Tail(None, 0.0, count)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def quartiles(samples: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile (as ``statistics`` gives
    them with ``n=4``); a single sample is its own quartiles."""
    if len(samples) < 2:
        value = samples[0] if samples else 0.0
        return [value, value, value]
    return statistics.quantiles(samples, n=4)


def relative_spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    low, mid, high = quartiles(samples)
    return (high - low) / mid if mid else 0.0
