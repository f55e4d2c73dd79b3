"""Trace-driven miss-free hoard-size simulation (paper section 5.2.1).

The paper replays each machine's trace with simulated disconnection
durations of 24 hours and 7 days, "each simulated disconnection
separated by an infinitesimal reconnection during which the simulated
user performed no work while the hoard was recomputed", and measures
for each period the mean working set, the miss-free hoard size under
SEER's clustering manager, and under strict LRU.  File sizes are real
when available, otherwise drawn from the geometric distribution of
section 5.1.2, one size seed per run (the paper's 99 % error bars over
several seeds are not drawn).

Every replay runs one record loop, :func:`replay`, which feeds the
records to one Seer.  A :class:`MissFreeScorer` rides it and scores
each window as the loop passes the window's start.
:func:`simulate_miss_free` replays for the scorer alone; a population
cell lets the scorer ride its live replay
(:mod:`repro.simulation.population`), so one ingest serves both.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.coda_priority import CodaPriorityManager
from repro.baselines.lru import lru_miss_free_size
from repro.baselines.spy_utility import SpyUtilityManager
from repro.baselines.optimal import working_set_size
from repro.core.hoard import HoardManager
from repro.core.parameters import SeerParameters
from repro.core.seer import Seer
from repro.fs import FileKind, FileSystemError
from repro.investigators import (
    CIncludeInvestigator,
    Investigator,
    MakefileInvestigator,
    NamingInvestigator,
)
from repro.tracing.events import Operation, TraceRecord
from repro.workload.generator import GeneratedTrace
from repro.workload.sizes import GEOMETRIC_P

MB = 1024 * 1024

# Content references: a hoard must hold the file's data to satisfy
# these.  Attribute examinations (stat) need only metadata, which every
# replication substrate keeps locally, so find(1)'s scans do not create
# *misses*.
_REFERENCE_OPS = (Operation.OPEN, Operation.CREATE, Operation.EXEC,
                  Operation.WRITE_CLOSE)

# What an LRU hoarding system sees, on the other hand, is the raw
# reference stream -- including every stat.  Section 4.1: "because find
# accesses every file, it destroys any LRU history that might have been
# useful in hoarding decisions.  This problem is even more severe in
# LRU-based systems such as CODA and LITTLE WORK."  SEER's protection
# from this is its meaningless-process detection; strict LRU has none.
_LRU_FEED_OPS = _REFERENCE_OPS + (Operation.STAT, Operation.CHMOD)

# Members bound to module names for the per-record checks (an
# ``Operation.FORK`` load is slow on CPython 3.11, and ``Enum.value``
# is a Python-level property; docs/hot-path.md).
_FORK, _EXEC, _EXIT = Operation.FORK, Operation.EXEC, Operation.EXIT
_REGULAR = FileKind.REGULAR


@dataclass(frozen=True)
class WindowResult:
    """One simulated disconnection period."""

    index: int
    start: float
    end: float
    referenced_files: int
    working_set_bytes: int
    seer_bytes: int
    lru_bytes: int
    uncoverable_files: int
    spy_bytes: int = 0   # SPY UTILITY's size, when include_spy is set
    coda_bytes: int = 0  # CODA's size, when include_coda is set

    @property
    def seer_overhead(self) -> float:
        """SEER hoard size relative to the working set (1.0 = optimal)."""
        if self.working_set_bytes == 0:
            return 1.0
        return self.seer_bytes / self.working_set_bytes


@dataclass
class MissFreeResult:
    """All windows of one (machine, window length, investigators, seed)."""

    machine: str
    window_seconds: float
    use_investigators: bool
    seed: int
    windows: List[WindowResult] = field(default_factory=list)
    # Ingestion-pipeline counters captured at the end of the run
    # (see repro.observability); surfaced by the CLI's --metrics flag.
    metrics: Optional[Dict[str, float]] = None

    def _mean(self, values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_working_set(self) -> float:
        return self._mean([w.working_set_bytes for w in self.windows])

    @property
    def mean_seer(self) -> float:
        return self._mean([w.seer_bytes for w in self.windows])

    @property
    def mean_lru(self) -> float:
        return self._mean([w.lru_bytes for w in self.windows])

    @property
    def mean_spy(self) -> float:
        return self._mean([w.spy_bytes for w in self.windows])

    @property
    def mean_coda(self) -> float:
        return self._mean([w.coda_bytes for w in self.windows])

    @property
    def lru_to_seer_ratio(self) -> float:
        return self.mean_lru / self.mean_seer if self.mean_seer else 0.0


def _geometric_size(path: str, seed: int) -> int:
    """Deterministic per-path draw from the paper's distribution.

    Seeded by crc32, not the built-in ``hash``: string hashing is
    salted per process, and these draws must agree across the parallel
    runner's workers and across checkpoint/resume process boundaries.
    """
    rng = random.Random(zlib.crc32(f"{seed}:{path}".encode("utf-8"))
                        & 0xFFFFFFFF)
    u = rng.random()
    return max(1, int(math.log1p(-u) / math.log1p(-GEOMETRIC_P)) + 1)


def make_size_function(trace: GeneratedTrace, seed: int) -> Callable[[str], int]:
    """Actual file sizes whenever possible, random otherwise (5.1.2)."""
    cache: Dict[str, int] = {}

    def sizes(path: str) -> int:
        cached = cache.get(path)
        if cached is None:
            actual = trace.size_of(path)
            cached = actual if actual > 0 else _geometric_size(path, seed)
            cache[path] = cached
        return cached

    return sizes


def _is_relevant_reference(record: TraceRecord, trace: GeneratedTrace,
                           ops: Tuple[Operation, ...] = _REFERENCE_OPS
                           ) -> bool:
    """Does this record represent a hoardable file reference?

    Transient files and non-file objects are excluded: they are either
    recreated on demand or always hoarded, so no hoarding algorithm is
    judged on them.
    """
    if not record.ok or record.op not in ops:
        return False
    path = record.path
    if not path.startswith("/") or path.startswith("/tmp/"):
        return False
    try:
        node = trace.kernel.fs.stat(path, follow_symlinks=False)
    except FileSystemError:
        return True   # deleted since: still a real file reference
    return node.kind is _REGULAR


def build_investigators(trace: GeneratedTrace) -> List[Investigator]:
    return [
        CIncludeInvestigator(trace.kernel.fs, "/home/u"),
        MakefileInvestigator(trace.kernel.fs, "/home/u"),
        NamingInvestigator(trace.kernel.fs, "/home/u"),
    ]


def replay_seer(trace: GeneratedTrace, parameters: SeerParameters,
                use_investigators: bool) -> Seer:
    """The Seer a replay of *trace* feeds: the simulated deployments'
    control file, the trace's investigators when asked for, and no
    kernel attachment (the replay hands it the records)."""
    investigators = build_investigators(trace) if use_investigators else []
    from repro.simulation import simulation_control
    return Seer(kernel=trace.kernel, parameters=parameters,
                control=simulation_control(),
                investigators=investigators, attach=False)


# Relevance flags, one byte per record (mark_relevance): read by the
# needed sets, the LRU, CODA and SPY feeds and the live miss check.
_LRU_FED = 1       # relevant under _LRU_FEED_OPS
_REFERENCED = 2    # relevant under _REFERENCE_OPS (implies _LRU_FED)


def mark_relevance(trace: GeneratedTrace, flags: bytearray,
                   start: int, stop: int) -> None:
    """Flag ``trace.records[start:stop]`` in *flags*, with one
    :func:`_is_relevant_reference` call per record.

    The call asks with ``_LRU_FEED_OPS``.  ``_REFERENCE_OPS`` is a
    subset of those, and the call's other tests do not read the op, so
    a record relevant to LRU is a content reference exactly when its op
    is one.
    """
    records = trace.records
    for index in range(start, stop):
        record = records[index]
        if _is_relevant_reference(record, trace, _LRU_FEED_OPS):
            flags[index] = (_LRU_FED | _REFERENCED
                            if record.op in _REFERENCE_OPS else _LRU_FED)


class MissFreeScorer:
    """The miss-free measurement of one trace, riding a replay of it.

    The scorer owns what section 5.2.1 adds to a replay: the window
    plan, the strict-LRU, SPY UTILITY and CODA baselines, and the
    scoring of each window.  SEER is the replay's :class:`Seer`: once
    the records before a window are ingested, :meth:`score_window`
    clusters them (``Seer.build_clusters``), sizes SEER's hoard
    (``HoardManager.miss_free_size``), then each baseline's, once per
    policy.  The baselines read the raw stream, not the Seer, so each
    is fed its records in order just before a window is scored.

    SEER's always-hoard set here is the observer's alone.  A live
    replay driving the same Seer adds the misses it records to
    ``Seer.always_hoard_paths``; a fixed-window disconnection records
    none.
    """

    def __init__(self, trace: GeneratedTrace, window_seconds: float,
                 use_investigators: bool = False,
                 seed: int = 0,
                 include_spy: bool = False,
                 include_coda: bool = False) -> None:
        self.result = MissFreeResult(trace.machine.name, window_seconds,
                                     use_investigators, seed)
        self._trace = trace
        self._sizes = make_size_function(trace, seed)
        self._hoard_manager = HoardManager()
        records = trace.records
        #: Every record's relevance flags, read by a live replay too.
        self.relevance = bytearray(len(records))
        mark_relevance(trace, self.relevance, 0, len(records))

        # The window plan.  Boundaries accumulate by repeated addition,
        # and a window ends at the first record at or past its boundary.
        self._start_time = records[0].time if records else 0.0
        boundaries: List[int] = []
        self._needed: List[Set[str]] = []
        needed: Set[str] = set()
        boundary = self._start_time + window_seconds
        for index, record in enumerate(records):
            while record.time >= boundary:
                boundaries.append(index)
                self._needed.append(needed)
                needed = set()
                boundary += window_seconds
            if self.relevance[index] & _REFERENCED:
                needed.add(record.path)
        self._needed.append(needed)
        # Window k + 1 is scored where window k ends, unless nothing in
        # it is referenced (a vacation: excluded, sec. 5.1.1).
        self._ends = [(end, index) for index, end in enumerate(boundaries)
                      if self._needed[index + 1]]
        self._scored = 0
        #: Record index of the last window boundary.  Replayed alone,
        #: the scorer's trace is ingested up to here: no window follows.
        self.last_boundary = boundaries[-1] if boundaries else 0

        self._lru_recency: Dict[str, int] = {}
        self._lru_counter = 0
        self._spy = SpyUtilityManager() if include_spy else None
        self._coda = CodaPriorityManager() if include_coda else None
        self._fed = 0   # records fed to the baselines so far

    @property
    def next_window_end(self) -> Optional[int]:
        """The record index where the next window to score ends, or
        ``None`` once every window is scored."""
        if self._scored < len(self._ends):
            return self._ends[self._scored][0]
        return None

    def score_window(self, seer: Seer) -> None:
        """Score the window after :attr:`next_window_end` from *seer*,
        which has ingested every record before that index."""
        end, index = self._ends[self._scored]
        self._scored += 1
        self._feed(end)
        needed = self._needed[index + 1]
        sizes = self._sizes
        clusters = seer.build_clusters()
        # Each policy is measured on the needed files both SEER and LRU
        # could have known about, so neither is charged for the other's
        # blind spots.  SEER is sized on the files LRU has seen; what
        # it could not have hoarded among them leaves the common set.
        seen_by_lru = needed & self._lru_recency.keys()
        seer_bytes, seer_uncoverable = self._hoard_manager.miss_free_size(
            clusters, sizes, seer.correlator.recency(), seen_by_lru,
            always_hoard=seer.observer.always_hoard_paths())
        coverable = seen_by_lru - seer_uncoverable
        uncoverable = needed - coverable
        lru_bytes, _ = lru_miss_free_size(self._lru_recency, coverable, sizes)
        spy_bytes = 0
        if self._spy is not None:
            spy_bytes, _ = self._spy.miss_free_size(coverable, sizes)
        coda_bytes = 0
        if self._coda is not None:
            coda_bytes, _ = self._coda.miss_free_size(coverable, sizes)
        window_seconds = self.result.window_seconds
        self.result.windows.append(WindowResult(
            index=index,
            start=self._start_time + index * window_seconds,
            end=self._start_time + (index + 1) * window_seconds,
            referenced_files=len(needed),
            working_set_bytes=working_set_size(coverable, sizes),
            seer_bytes=seer_bytes,
            lru_bytes=lru_bytes,
            uncoverable_files=len(uncoverable),
            spy_bytes=spy_bytes,
            coda_bytes=coda_bytes))

    def _feed(self, stop: int) -> None:
        """Feed the baselines every record before *stop*."""
        records = self._trace.records
        flags = self.relevance
        lru_recency = self._lru_recency
        counter = self._lru_counter
        coda = self._coda
        for index in range(self._fed, stop):
            if flags[index]:
                path = records[index].path
                counter += 1
                lru_recency[path] = counter
                if coda is not None:
                    coda.reference(path)
        self._lru_counter = counter
        if self._spy is not None:
            for index in range(self._fed, stop):
                _feed_spy(self._spy, records[index], flags[index])
        self._fed = stop


def replay(seer: Seer, trace: GeneratedTrace, start: int, stop: int,
           scorer: Optional[MissFreeScorer] = None,
           check: Optional[Callable[[int, TraceRecord], None]] = None
           ) -> None:
    """Feed ``trace.records[start:stop]`` to *seer*'s observer, in order.

    This is the one record loop of every replay.  *scorer* scores each
    of its windows that ends by *stop*, as soon as the records before
    the window are in; *check* sees each record, with its index, after
    the observer has.
    """
    records = trace.records
    handle = seer.observer.handle_record
    while scorer is not None:
        end = scorer.next_window_end
        if end is None or end > stop:
            break
        _ingest(handle, records, start, end, check)
        scorer.score_window(seer)
        start = end
    _ingest(handle, records, start, stop, check)


def _ingest(handle: Callable[[TraceRecord], None],
            records: Sequence[TraceRecord], start: int, stop: int,
            check: Optional[Callable[[int, TraceRecord], None]]) -> None:
    if check is None:
        for record in records[start:stop]:
            handle(record)
        return
    for index in range(start, stop):
        record = records[index]
        handle(record)
        check(index, record)


def simulate_miss_free(trace: GeneratedTrace, window_seconds: float,
                       parameters: Optional[SeerParameters] = None,
                       use_investigators: bool = False,
                       seed: int = 0,
                       include_spy: bool = False,
                       include_coda: bool = False) -> MissFreeResult:
    """Replay *trace* with fixed simulated disconnection windows.

    At each window boundary the hoard is recomputed from everything
    observed so far, and the three measures are evaluated against the
    set of files referenced in the *following* window.  The replay
    stops at the last boundary: no scored window follows it.

    *include_coda* also scores the CODA priority baseline (BOUNDED
    variant, section 6.2's "global bound" reading) with **no hoard
    profiles loaded**: the paper's finding is precisely that CODA's
    formula needs ongoing hand management nobody performs, so it is
    measured the way an unmanaged population would actually run it.
    Like LRU, it sees the raw reference stream including stats.
    """
    if parameters is None:
        from repro.simulation import SIM_PARAMETERS
        parameters = SIM_PARAMETERS
    if not trace.records:
        return MissFreeResult(trace.machine.name, window_seconds,
                              use_investigators, seed)
    seer = replay_seer(trace, parameters, use_investigators)
    scorer = MissFreeScorer(trace, window_seconds,
                            use_investigators=use_investigators, seed=seed,
                            include_spy=include_spy,
                            include_coda=include_coda)
    replay(seer, trace, 0, scorer.last_boundary, scorer)
    scorer.result.metrics = seer.metrics.snapshot()
    return scorer.result


def _feed_spy(spy: SpyUtilityManager, record: TraceRecord,
              flag: int) -> None:
    """Drive the SPY UTILITY baseline from one raw trace record and its
    relevance flags.

    SPY tracks process execution trees; it has no meaningless-process
    or frequent-file machinery, so it sees the raw stream like LRU.
    """
    op = record.op
    if op is _FORK:
        spy.on_fork(record.pid, record.ppid, program=record.program)
    elif op is _EXEC and record.ok:
        spy.on_exec(record.pid, record.path)
    elif op is _EXIT:
        spy.on_exit(record.pid)
    elif flag & _REFERENCED:
        spy.on_access(record.pid, record.path)
