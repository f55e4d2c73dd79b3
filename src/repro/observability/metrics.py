"""Cheap counters and timing hooks for the ingestion hot path.

Three primitives cover everything the correlator pipeline needs:

* **counters** -- monotonically increasing integers (``incr``);
* **spans** -- first/last wall-clock marks around a repeated event,
  giving an observed rate such as references/sec (``mark``);
* **timers** -- accumulated duration of discrete operations such as a
  cluster build (``timed``).

A single :class:`Metrics` object is shared by a correlator, its
per-process distance calculators and its neighbor store, so one
``snapshot()`` describes the whole pipeline.  All state is plain
dictionaries of numbers; recording is safe to leave enabled in
production and in benchmarks.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.observability.registry import (
    DERIVED_SUFFIXES,
    UnregisteredMetricError,
    is_registered,
    sort_metric_names,
)


@dataclass
class SpanStat:
    """Wall-clock span of a repeated event stream."""

    count: int = 0
    first: float = 0.0   # perf_counter at the first mark
    last: float = 0.0    # perf_counter at the most recent mark

    @property
    def elapsed(self) -> float:
        return self.last - self.first

    @property
    def rate(self) -> float:
        """Observed events per second over the span (0 if degenerate)."""
        if self.count < 2 or self.elapsed <= 0:
            return 0.0
        return self.count / self.elapsed


@dataclass
class TimerStat:
    """Accumulated duration of a discrete, timed operation."""

    calls: int = 0
    total_seconds: float = 0.0
    last_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class Metrics:
    """A small holder of counters, spans and timers.

    With ``strict=True`` every recorded name must be declared in
    :mod:`repro.observability.registry` -- the registry's one
    enforcement point.  The test suite flips :attr:`strict_default` on
    (``tests/conftest.py``) so any unregistered name used by
    production code fails its test immediately; production runs stay
    permissive so a hot path never pays for a typo with a crash.

    The whole class is thread-safe: every read-modify-write (``incr``,
    ``mark``, ``timed``, ``observe``, ``absorb_counters``) holds a
    per-instance lock, so a registry shared between the service
    daemon's event loop and the store's IO thread cannot lose updates
    to interleaving.  The read side (``counter``, ``span``, ``timer``,
    ``rate``, ``snapshot``, ``render``) holds the *same* lock -- lint
    rule RL009 enforces the pairing, because a lock-free read of a
    dict another thread is resizing can tear.  Under plain
    single-threaded use the uncontended lock costs tens of
    nanoseconds per access.
    """

    __slots__ = ("counters", "spans", "timers", "strict", "_lock")

    #: Default for instances created without an explicit ``strict``;
    #: the test suite sets this to True.
    strict_default: bool = False

    def __init__(self, strict: Optional[bool] = None) -> None:
        self.counters: Dict[str, int] = {}
        self.spans: Dict[str, SpanStat] = {}
        self.timers: Dict[str, TimerStat] = {}
        self.strict = Metrics.strict_default if strict is None else strict
        self._lock = threading.Lock()

    def _check(self, name: str) -> None:
        if self.strict and not is_registered(name):
            raise UnregisteredMetricError(name)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* (creating it at zero)."""
        self._check(name)
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def mark(self, name: str, count: int = 1) -> None:
        """Record *count* occurrences of span *name* at the current time."""
        self._check(name)
        now = time.perf_counter()
        with self._lock:
            span = self.spans.get(name)
            if span is None:
                span = SpanStat(first=now)
                self.spans[name] = span
            span.count += count
            span.last = now

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Time a block, accumulating into timer *name*."""
        self._check(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                timer = self.timers.get(name)
                if timer is None:
                    timer = TimerStat()
                    self.timers[name] = timer
                timer.calls += 1
                timer.total_seconds += elapsed
                timer.last_seconds = elapsed

    def observe(self, name: str, seconds: float) -> None:
        """Record an externally-timed duration into timer *name*.

        The parallel runner times shards inside worker processes and
        folds the measurements into the parent's registry at join;
        this is the entry point for such pre-measured durations.
        """
        self._check(name)
        with self._lock:
            timer = self.timers.get(name)
            if timer is None:
                timer = TimerStat()
                self.timers[name] = timer
            timer.calls += 1
            timer.total_seconds += seconds
            timer.last_seconds = seconds

    def absorb_counters(self, snapshot: Dict[str, float]) -> None:
        """Sum another registry's counters into this one.

        *snapshot* is a :meth:`snapshot` mapping, possibly produced in
        a different process.  Span and timer derivatives (rates, means)
        are not meaningful to add, so keys ending in one of the
        :data:`~repro.observability.registry.DERIVED_SUFFIXES` that
        :meth:`snapshot` writes are skipped and only the plain counters
        are merged.
        """
        with self._lock:
            for name, value in snapshot.items():
                if name.endswith(DERIVED_SUFFIXES):
                    continue
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)):
                    continue
                self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def span(self, name: str) -> Optional[SpanStat]:
        with self._lock:
            return self.spans.get(name)

    def timer(self, name: str) -> Optional[TimerStat]:
        with self._lock:
            return self.timers.get(name)

    def rate(self, name: str) -> float:
        """Observed rate of span *name* in events/second."""
        with self._lock:
            span = self.spans.get(name)
            return span.rate if span is not None else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Flatten everything into one name -> number mapping."""
        with self._lock:
            out: Dict[str, float] = dict(self.counters)
            for name, span in self.spans.items():
                out[f"{name}.count"] = span.count
                out[f"{name}.seconds"] = span.elapsed
                out[f"{name}.per_second"] = span.rate
            for name, timer in self.timers.items():
                out[f"{name}.calls"] = timer.calls
                out[f"{name}.total_seconds"] = timer.total_seconds
                out[f"{name}.mean_seconds"] = timer.mean_seconds
            return out

    def render(self) -> str:
        """Human-readable report, one metric per line.

        Names render in the canonical registry order (unregistered
        ones last, alphabetically), so two runs emit the same metric
        on the same line and reports diff cleanly.
        """
        lines = ["metrics:"]
        with self._lock:
            for name in sort_metric_names(list(self.counters)):
                lines.append(f"  {name:<40s} {self.counters[name]:>14,d}")
            for name in sort_metric_names(list(self.spans)):
                span = self.spans[name]
                lines.append(f"  {name + '.per_second':<40s} "
                             f"{span.rate:>14,.0f}"
                             f"  ({span.count:,d} in {span.elapsed:.3f}s)")
            for name in sort_metric_names(list(self.timers)):
                timer = self.timers[name]
                lines.append(f"  {name + '.mean_seconds':<40s} "
                             f"{timer.mean_seconds:>14.6f}"
                             f"  ({timer.calls} calls, "
                             f"{timer.total_seconds:.3f}s total)")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.spans.clear()
            self.timers.clear()
