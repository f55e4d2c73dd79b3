"""Connectivity schedules: connected, disconnected, suspended.

The live measurements of section 5.1.1 depend on per-machine
disconnection behaviour: the number of disconnections, their duration
distribution (Table 3), suspension periods that must be discarded, and
the 15-minute squash rule for brief disconnections/reconnections.
This module synthesizes such schedules from per-machine statistics.

Durations are drawn from a lognormal distribution fitted to the
published mean and median (mean = exp(mu + sigma^2/2),
median = exp(mu)), clamped to the published maximum and the 15-minute
minimum the squash rule induces.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

HOUR = 3600.0
DAY = 24 * HOUR


class PeriodKind(enum.Enum):
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"
    SUSPENDED = "suspended"   # always nested inside a disconnection


@dataclass(frozen=True)
class Period:
    kind: PeriodKind
    start: float   # seconds
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def duration_hours(self) -> float:
        return self.duration / HOUR


@dataclass
class Schedule:
    """A machine's full connectivity timeline."""

    periods: List[Period] = field(default_factory=list)

    def disconnections(self) -> List[Period]:
        return [p for p in self.periods if p.kind is PeriodKind.DISCONNECTED]

    def suspensions(self) -> List[Period]:
        return [p for p in self.periods if p.kind is PeriodKind.SUSPENDED]

    @property
    def total_duration(self) -> float:
        if not self.periods:
            return 0.0
        return max(p.end for p in self.periods)

    def active_disconnected_time(self, disconnection: Period) -> float:
        """Disconnected wall time minus nested suspensions; misses can
        only happen (and time-to-first-miss only accrues) while the
        machine is actively used (section 5.1.1)."""
        suspended = sum(
            min(s.end, disconnection.end) - max(s.start, disconnection.start)
            for s in self.suspensions()
            if s.start < disconnection.end and s.end > disconnection.start)
        return disconnection.duration - suspended


def fit_lognormal(mean: float, median: float) -> Tuple[float, float]:
    """Fit (mu, sigma) from a published mean and median.

    median = exp(mu); mean = exp(mu + sigma^2 / 2).
    Degenerate inputs (mean <= median) collapse to sigma = 0.
    """
    if median <= 0 or mean <= 0:
        raise ValueError("mean and median must be positive")
    mu = math.log(median)
    ratio = mean / median
    sigma = math.sqrt(2 * math.log(ratio)) if ratio > 1.0 else 0.0
    return mu, sigma


def clamp_disconnection_stats(mean_hours: float, median_hours: float,
                              max_hours: float,
                              minimum_hours: float = 0.25
                              ) -> Tuple[float, float, float, bool]:
    """Force a (mean, median, max) duration tuple into fit validity.

    :func:`fit_lognormal` requires ``0 < median <= mean`` and the clamp
    loop in :func:`generate_schedule` assumes ``mean <= max``.  Table 3
    satisfies both by construction, but *sampled* tuples -- the
    population synthesizer draws each statistic from its own fitted
    distribution -- can land anywhere, and an invalid draw must not
    raise in the middle of a thousand-machine grid.  The repair is
    monotone: every value is floored at *minimum_hours*, the median is
    pulled down to the mean, and the max is pulled up to the mean.

    Returns the repaired ``(mean, median, max)`` plus a flag saying
    whether anything had to change (the population sampler counts
    these as ``population.stats_clamped``).
    """
    floor = max(minimum_hours, 1e-6)
    mean = mean_hours if mean_hours > floor else floor
    median = median_hours if median_hours > floor else floor
    maximum = max_hours if max_hours > floor else floor
    if median > mean:
        median = mean
    if maximum < mean:
        maximum = mean
    clamped = (mean != mean_hours or median != median_hours or
               maximum != max_hours)
    return mean, median, maximum, clamped


def generate_schedule(n_disconnections: int, mean_hours: float,
                      median_hours: float, max_hours: float,
                      days: float, rng: Optional[random.Random] = None,
                      suspension_fraction: float = 0.3,
                      minimum_hours: float = 0.25) -> Schedule:
    """Build a schedule with *n_disconnections* over *days* days.

    Disconnection durations follow the fitted lognormal, clamped to
    [minimum, max].  A fraction of each long disconnection is spent
    suspended (overnight lid-closed time).  Connected gaps fill the
    remaining span evenly with jitter.
    """
    rng = rng if rng is not None else random.Random(0)
    if n_disconnections <= 0:
        # A machine that never disconnected (population sampling draws
        # such profiles; Table 3 itself has none).  The whole span is
        # one connected period -- without this the duration-rescale
        # loop below divides by len(durations) == 0.
        return Schedule(periods=[Period(PeriodKind.CONNECTED, 0.0,
                                        days * DAY)])
    mu, sigma = fit_lognormal(mean_hours, median_hours)
    durations = []
    for _ in range(n_disconnections):
        draw = math.exp(rng.gauss(mu, sigma)) if sigma > 0 else median_hours
        durations.append(min(max(draw, minimum_hours), max_hours))
    # Clamping to [minimum, max] biases the sample mean below the
    # published mean; rescale (and re-clamp) a few times so Table 3's
    # means survive the clamp.
    for _ in range(4):
        actual = sum(durations) / len(durations)
        if actual <= 0 or abs(actual - mean_hours) / mean_hours < 0.02:
            break
        factor = mean_hours / actual
        durations = [min(max(d * factor, minimum_hours), max_hours)
                     for d in durations]

    total_disconnected = sum(durations) * HOUR
    total_span = days * DAY
    total_connected = max(total_span - total_disconnected,
                          n_disconnections * HOUR)
    base_gap = total_connected / (n_disconnections + 1)

    periods: List[Period] = []
    clock = 0.0
    for duration_hours in durations:
        gap = base_gap * rng.uniform(0.5, 1.5)
        periods.append(Period(PeriodKind.CONNECTED, clock, clock + gap))
        clock += gap
        disconnect_end = clock + duration_hours * HOUR
        periods.append(Period(PeriodKind.DISCONNECTED, clock, disconnect_end))
        # Long disconnections include suspended stretches.
        if duration_hours > 8.0 and suspension_fraction > 0:
            suspended = duration_hours * HOUR * suspension_fraction
            mid = clock + (duration_hours * HOUR - suspended) / 2
            periods.append(Period(PeriodKind.SUSPENDED, mid, mid + suspended))
        clock = disconnect_end
    periods.append(Period(PeriodKind.CONNECTED, clock, clock + base_gap))
    return Schedule(periods=periods)


def squash_brief_periods(schedule: Schedule,
                         minimum_seconds: float = 15 * 60.0) -> Schedule:
    """Post-process a raw schedule per section 5.1.1.

    Disconnections shorter than the minimum are dropped (misses would
    not be bothersome); reconnections shorter than the minimum are
    merged into the surrounding disconnections (brief reconnections to
    transfer mail or service a miss), which reduces the disconnection
    count and raises the mean duration -- a perturbation the paper
    notes is detrimental to SEER.

    The result keeps three invariants the simulators depend on
    (pinned by a hypothesis property in ``tests/workload``):

    * top-level periods alternate kinds and tile the original timeline
      exactly (suspensions are nested, not top-level);
    * no surviving disconnection is shorter than the minimum -- a brief
      one at the head of the schedule, with no predecessor to merge
      into, simply becomes connected time;
    * every surviving suspension lies inside a surviving disconnection.
      A suspension whose disconnection was dropped or relabelled is
      dropped with it instead of being orphaned inside connected time
      (where it would also wedge between two connected periods and
      block their merge).
    """
    suspensions = [p for p in schedule.periods
                   if p.kind is PeriodKind.SUSPENDED]
    merged: List[Period] = []
    for period in schedule.periods:
        if period.kind is PeriodKind.SUSPENDED:
            continue
        if period.kind is PeriodKind.DISCONNECTED and \
                period.duration < minimum_seconds:
            period = Period(PeriodKind.CONNECTED, period.start, period.end)
        if period.kind is PeriodKind.CONNECTED and \
                period.duration < minimum_seconds and merged and \
                merged[-1].kind is PeriodKind.DISCONNECTED:
            period = Period(PeriodKind.DISCONNECTED, period.start, period.end)
        if merged and merged[-1].kind is period.kind:
            merged[-1] = Period(period.kind, merged[-1].start, period.end)
        else:
            merged.append(period)
    # Re-nest the suspensions that still fall inside a disconnection,
    # each immediately after its containing period (the layout
    # generate_schedule produces).
    result: List[Period] = []
    for period in merged:
        result.append(period)
        if period.kind is PeriodKind.DISCONNECTED:
            result.extend(s for s in suspensions
                          if period.start <= s.start and
                          s.end <= period.end)
    return Schedule(periods=result)
