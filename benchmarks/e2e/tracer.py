"""Spans recorded from outside the program, around calls into its layers.

Nothing under ``src/`` knows about this module.  A traced run replaces
public functions and methods of the program's modules with thin
wrappers (:class:`Instrumentation`) that open a span on entry and close
it on exit; :meth:`Instrumentation.close` puts the originals back.

Two kinds of span:

* **aggregated** -- boundaries crossed once per trace record (observer,
  correlator, ``FileSystem.stat``) keep only a count, the total time
  and the time covered by their children;
* **individual** -- boundaries crossed once per window, request or
  shard are also kept one by one, with start, end and the id of the
  enclosing individual span, so per-call percentiles can be taken.

A span's *self time* is its duration minus the part of that interval
its children cover.  Wrapped calls nest strictly on one thread, so
their children never overlap and the covered time is a running sum.
Spans measured elsewhere and added with :meth:`Tracer.record` (one per
pipelined request, say) may overlap one another; their parent's
covered time is the length of the union of their intervals.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple)

#: Span that accounts for the benchmark's own post-call probes, so
#: their cost shows in the stage table instead of inflating a layer.
PROBE_SPAN = "trace.probe"


class Span(NamedTuple):
    span_id: int
    parent_id: int        # 0: no enclosing individual span
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class SpanStat:
    """Aggregate of every span of one name."""

    count: int = 0
    total: float = 0.0
    covered: float = 0.0   # time covered by child spans

    @property
    def self_seconds(self) -> float:
        return self.total - self.covered


def covered_seconds(start: float, end: float,
                    children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of *children* intervals clipped to
    ``[start, end]``; overlapping children are counted once."""
    clipped = sorted((max(start, lo), min(end, hi))
                     for lo, hi in children if hi > start and lo < end)
    covered = 0.0
    run_start = run_end = None
    for lo, hi in clipped:
        if run_end is None or lo > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        covered += run_end - run_start
    return covered


class Tracer:
    """Records spans opened on the thread that created it.

    Calls arriving on any other thread pass through unrecorded (and
    are counted in :attr:`foreign_calls`): one stack per tracer keeps
    the nesting, and with it the self-time arithmetic, exact.
    """

    def __init__(self, individual: Iterable[str] = ()) -> None:
        self.thread = threading.get_ident()
        self.stats: Dict[str, SpanStat] = {}
        self.spans: List[Span] = []
        self.foreign_calls = 0
        self._individual = frozenset(individual)
        self._stack: List[List[Any]] = []
        self._next_id = 1
        self._recorded: List[Span] = []

    # -- nested spans ---------------------------------------------------
    def begin(self, name: str) -> List[Any]:
        """Open a span; returns the frame :meth:`end` must be given."""
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent_id = parent[3] or parent[4]
        span_id = 0
        if name in self._individual:
            span_id = self._next_id
            self._next_id += 1
        # frame: name, start, covered, span id, enclosing individual id
        frame = [name, 0.0, 0.0, span_id, parent_id]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def end(self, frame: List[Any]) -> None:
        now = time.perf_counter()
        duration = now - frame[1]
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        stat = self.stats.get(frame[0])
        if stat is None:
            stat = self.stats[frame[0]] = SpanStat()
        stat.count += 1
        stat.total += duration
        stat.covered += frame[2]
        if stack:
            stack[-1][2] += duration
        if frame[3]:
            self.spans.append(Span(frame[3], frame[4], frame[0],
                                   frame[1], now))

    # -- spans measured elsewhere --------------------------------------
    def record(self, name: str, start: float, end: float,
               parent_id: int = 0) -> int:
        """Add a span timed by the caller, e.g. one pipelined request.

        Recorded spans may overlap their siblings.  They are children
        of *parent_id* (a span from :meth:`record` or an individual
        nested span) and count toward its covered time once
        :meth:`summary` is taken.
        """
        span_id = self._next_id
        self._next_id += 1
        span = Span(span_id, parent_id, name, start, end)
        self._recorded.append(span)
        self.spans.append(span)
        return span_id

    # -- results ---------------------------------------------------------
    def summary(self) -> Dict[str, SpanStat]:
        """Per-name statistics, recorded spans folded in."""
        stats = {name: SpanStat(stat.count, stat.total, stat.covered)
                 for name, stat in self.stats.items()}
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self._recorded:
            stat = stats.setdefault(span.name, SpanStat())
            stat.count += 1
            stat.total += span.seconds
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end))
        for span in self.spans:
            kids = children.get(span.span_id)
            if kids:
                stats[span.name].covered += covered_seconds(
                    span.start, span.end, kids)
        return stats

    def durations(self, name: str) -> List[float]:
        """Seconds of every individual span called *name*."""
        return [span.seconds for span in self.spans if span.name == name]


# ----------------------------------------------------------------------
# wrapping the program's functions
# ----------------------------------------------------------------------
PostHook = Callable[..., None]

_INHERITED = object()


def _wrapper(tracer: Tracer, name: str, fn: Callable[..., Any],
             post: Optional[PostHook]) -> Callable[..., Any]:
    begin, end = tracer.begin, tracer.end
    owner = tracer.thread
    get_ident = threading.get_ident

    def traced(*args: Any, **kwargs: Any) -> Any:
        if get_ident() != owner:
            tracer.foreign_calls += 1
            return fn(*args, **kwargs)
        frame = begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(frame)
        if post is not None:
            probe = begin(PROBE_SPAN)
            try:
                post(result, *args, **kwargs)
            finally:
                end(probe)
        return result

    traced.__wrapped__ = fn   # type: ignore[attr-defined]
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__qualname__ = getattr(fn, "__qualname__", name)
    return traced


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.module:Class.attr"`` -> (owner object, attr, value)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Instrumentation:
    """Wrappers installed around program functions; undone by close().

    A method is wrapped on its class, so every caller sees it.  A
    module-level function is also rebound in every already-imported
    module of the ``repro`` package that imported it by name, since
    ``from x import f`` copies the binding.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, target: str, name: str,
             post: Optional[PostHook] = None) -> None:
        owner, attr, original = resolve(target)
        if not callable(original) or isinstance(original, type):
            raise TypeError(f"{target} is not a function or method")
        wrapped = _wrapper(self.tracer, name, original, post)
        if isinstance(owner, type):
            self._set(owner, attr, wrapped)
            return
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        # An inherited method has no entry of its own: undo deletes it.
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def self_seconds_by_layer(stats: Dict[str, SpanStat]) -> Dict[str, float]:
    """Self time summed per layer (the span name up to its first dot)."""
    layers: Dict[str, float] = {}
    for name, stat in stats.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + stat.self_seconds
    return layers


def stage_table(stats: Dict[str, SpanStat], wall: float,
                order: Sequence[str] = ()) -> str:
    """The human-readable per-span breakdown printed by traced runs."""
    names = list(order) + sorted(set(stats) - set(order))
    lines = [f"{'span':<22} {'calls':>10} {'total s':>10} {'self s':>10} "
             f"{'self %':>7}"]
    for name in names:
        stat = stats.get(name)
        if stat is None or not stat.count:
            continue
        share = 100.0 * stat.self_seconds / wall if wall > 0 else 0.0
        lines.append(f"{name:<22} {stat.count:>10} {stat.total:>10.3f} "
                     f"{stat.self_seconds:>10.3f} {share:>6.1f}%")
    covered = sum(stat.self_seconds for stat in stats.values())
    lines.append(f"{'(sum of self)':<22} {'':>10} {'':>10} "
                 f"{covered:>10.3f} "
                 f"{100.0 * covered / wall if wall > 0 else 0.0:>6.1f}%")
    return "\n".join(lines)
