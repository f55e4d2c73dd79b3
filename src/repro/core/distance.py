"""Semantic distance data reduction (paper section 3.1.2).

Section 3.1.1 defines three semantic distances.  SEER uses the third,
based on open/close lifetimes, and the correlator computes it in place
in its fused scan (:meth:`repro.core.arena.ColumnarEngine.open`); the
paper's statements of all three are kept as the test oracle
(``tests/oracle/distance.py``).  What stays here is the data-reduction
step that turns many per-reference distances into one per-file-pair
summary: :class:`DistanceSummary`, the geometric mean of section 3.1.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class DistanceSummary:
    """Online summary of the distances observed for one file pair.

    The paper first tried the arithmetic mean and rejected it: three
    observations of 1, 1, 1498 average to 500, yet indicate a far
    closer relationship than a constant 500.  The geometric mean gives
    small values more importance.  Distances of zero are handled by
    averaging ``log(1 + d)`` and inverting, which preserves ordering
    and maps all-zero observations to zero.
    """

    count: int = 0
    log_sum: float = 0.0
    linear_sum: float = 0.0
    last_update: int = 0   # correlator reference counter at last update
    # Computed means are cached until the next add(): neighbor-table
    # victim selection and nearest() queries read means far more often
    # than observations arrive, and expm1/log1p dominate otherwise.
    _geometric_cache: Optional[float] = field(
        default=None, repr=False, compare=False)
    _arithmetic_cache: Optional[float] = field(
        default=None, repr=False, compare=False)

    def add(self, distance: float, now: int = 0) -> None:
        if distance < 0:
            raise ValueError(f"negative semantic distance: {distance}")
        self.count += 1
        self.log_sum += math.log1p(distance)
        self.linear_sum += distance
        self.last_update = now
        self._geometric_cache = None
        self._arithmetic_cache = None

    def geometric_mean(self) -> float:
        cached = self._geometric_cache
        if cached is None:
            if self.count == 0:
                cached = math.inf
            else:
                cached = math.expm1(self.log_sum / self.count)
            self._geometric_cache = cached
        return cached

    def arithmetic_mean(self) -> float:
        cached = self._arithmetic_cache
        if cached is None:
            if self.count == 0:
                cached = math.inf
            else:
                cached = self.linear_sum / self.count
            self._arithmetic_cache = cached
        return cached

    def mean(self, geometric: bool = True) -> float:
        return self.geometric_mean() if geometric else self.arithmetic_mean()
