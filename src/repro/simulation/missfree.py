"""Trace-driven miss-free hoard-size simulation (paper section 5.2.1).

The paper replays each machine's trace with simulated disconnection
durations of 24 hours and 7 days, "each simulated disconnection
separated by an infinitesimal reconnection during which the simulated
user performed no work while the hoard was recomputed", and measures
for each period the mean working set, the miss-free hoard size under
SEER's clustering manager, and under strict LRU.  File sizes are real
when available, otherwise drawn from the geometric distribution of
section 5.1.2; several seeds are run and results carry 99 % CIs.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.coda_priority import CodaPriorityManager, CodaVariant
from repro.baselines.lru import lru_miss_free_size
from repro.baselines.spy_utility import SpyUtilityManager
from repro.baselines.optimal import working_set_size
from repro.core.hoard import HoardManager
from repro.core.parameters import SeerParameters
from repro.core.seer import Seer
from repro.fs import FileSystemError
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

    @property
    def lru_overhead(self) -> float:
        if self.working_set_bytes == 0:
            return 1.0
        return self.lru_bytes / self.working_set_bytes


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
    return node.kind.value == "regular"


def build_investigators(trace: GeneratedTrace) -> List[Investigator]:
    return [
        CIncludeInvestigator(trace.kernel.fs, "/home/u"),
        MakefileInvestigator(trace.kernel.fs, "/home/u"),
        NamingInvestigator(trace.kernel.fs, "/home/u"),
    ]


def simulate_miss_free(trace: GeneratedTrace, window_seconds: float,
                       parameters: Optional[SeerParameters] = None,
                       use_investigators: bool = False,
                       seed: int = 0,
                       include_spy: bool = False,
                       include_coda: bool = False) -> MissFreeResult:
    """Replay *trace* with fixed simulated disconnection windows.

    At each window boundary the hoard is recomputed from everything
    observed so far, and the three measures are evaluated against the
    set of files referenced in the *following* window.

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

    sizes = make_size_function(trace, seed)
    investigators = build_investigators(trace) if use_investigators else []
    from repro.simulation import simulation_control
    seer = Seer(kernel=trace.kernel, parameters=parameters,
                control=simulation_control(),
                investigators=investigators, attach=False)
    hoard_manager = HoardManager(parameters)

    # Pre-slice the trace into windows.
    start_time = trace.records[0].time
    windows: List[List[TraceRecord]] = []
    needed_sets: List[Set[str]] = []
    current: List[TraceRecord] = []
    needed: Set[str] = set()
    boundary = start_time + window_seconds
    for record in trace.records:
        while record.time >= boundary:
            windows.append(current)
            needed_sets.append(needed)
            current, needed = [], set()
            boundary += window_seconds
        current.append(record)
        if _is_relevant_reference(record, trace):
            needed.add(record.path)
    windows.append(current)
    needed_sets.append(needed)

    lru_recency: Dict[str, int] = {}
    lru_counter = 0
    spy = SpyUtilityManager() if include_spy else None
    coda = CodaPriorityManager(CodaVariant.BOUNDED) if include_coda else None

    result = MissFreeResult(trace.machine.name, window_seconds,
                            use_investigators, seed)
    for index in range(len(windows) - 1):
        for record in windows[index]:
            seer.observer.handle_record(record)
            if _is_relevant_reference(record, trace, ops=_LRU_FEED_OPS):
                lru_counter += 1
                lru_recency[record.path] = lru_counter
                if coda is not None:
                    coda.reference(record.path)
            if spy is not None:
                _feed_spy(spy, record, trace)
        needed = needed_sets[index + 1]
        if not needed:
            continue   # unused period (vacation): excluded (sec. 5.1.1)
        clusters = seer.build_clusters()
        always = seer.always_hoard_paths()
        # First pass identifies files each algorithm could not have
        # known about; both are then measured on the common coverable
        # set, so neither is charged for the other's blind spots.
        _, seer_uncoverable = hoard_manager.miss_free_size(
            clusters, sizes, seer.correlator.recency(), set(needed),
            always_hoard=always)
        _, lru_uncoverable = lru_miss_free_size(lru_recency, set(needed), sizes)
        uncoverable = seer_uncoverable | lru_uncoverable
        coverable = needed - uncoverable
        seer_bytes, _ = hoard_manager.miss_free_size(
            clusters, sizes, seer.correlator.recency(), set(coverable),
            always_hoard=always)
        lru_bytes, _ = lru_miss_free_size(lru_recency, set(coverable), sizes)
        spy_bytes = 0
        if spy is not None:
            spy_bytes, _ = spy.miss_free_size(set(coverable), sizes)
        coda_bytes = 0
        if coda is not None:
            coda_bytes, _ = coda.miss_free_size(set(coverable), sizes)
        result.windows.append(WindowResult(
            index=index,
            start=start_time + index * window_seconds,
            end=start_time + (index + 1) * window_seconds,
            referenced_files=len(needed),
            working_set_bytes=working_set_size(coverable, sizes),
            seer_bytes=seer_bytes,
            lru_bytes=lru_bytes,
            uncoverable_files=len(uncoverable),
            spy_bytes=spy_bytes,
            coda_bytes=coda_bytes))
    result.metrics = seer.metrics.snapshot()
    return result


def _feed_spy(spy: SpyUtilityManager, record: TraceRecord,
              trace: GeneratedTrace) -> None:
    """Drive the SPY UTILITY baseline from raw trace records.

    SPY tracks process execution trees; it has no meaningless-process
    or frequent-file machinery, so it sees the raw stream like LRU.
    """
    if record.op is Operation.FORK:
        spy.on_fork(record.pid, record.ppid, program=record.program)
    elif record.op is Operation.EXEC and record.ok:
        spy.on_exec(record.pid, record.path)
    elif record.op is Operation.EXIT:
        spy.on_exit(record.pid)
    elif _is_relevant_reference(record, trace):
        spy.on_access(record.pid, record.path)
