"""Live-usage simulation (paper section 5.2.2, Tables 3-5).

Replays a machine's trace against its connectivity schedule.  Before
each disconnection the hoard is filled to the configured budget; during
the disconnection, references to files absent from the hoard are hoard
misses.  Misses are recorded the way the deployment recorded them:

* *manual* misses carry a severity derived from the missed file's role
  in its project (section 4.4's 0-4 scale).  Following the paper's
  observation that users are peripherally aware of hoard contents and
  switch away from unhoarded projects, only the first miss per project
  per disconnection is recorded manually;
* *automatic* misses are accesses to files SEER knows to exist but did
  not hoard, deduplicated per file -- they "tend to exceed the
  user-reported count" here just as in the paper.

Time to first miss is measured in *active* hours: suspension time is
discarded (section 5.1.1), and disconnections and reconnections
shorter than 15 minutes are squashed first.

With a fault profile (docs/fault-injection.md) the replay leaves the
happy path: the hoard fill before a disconnection can be interrupted
partway -- the user walks away before the fill completes, so the
laptop leaves with an incomplete hoard -- individual fills can lose
files to flaky server reads, and reconnection synchronization is
retried under the bounded-attempts backoff policy.  All injected
faults are counted in the seer's metrics (``faults.*``), so they show
up under the CLI's ``--metrics``.  With no profile (or the inert
``none`` profile) the replay is byte-identical to a fault-free build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.hoard import HoardSelection, MissSeverity
from repro.core.parameters import SeerParameters
from repro.core.seer import Seer
from repro.faults import (FaultInjector, FaultProfile, RetryPolicy,
                          profile_from_name)
from repro.fs.paths import dirname
from repro.simulation.missfree import (
    _REFERENCED,
    MissFreeScorer,
    make_size_function,
    mark_relevance,
    replay,
    replay_seer,
)
from repro.simulation.stats import SummaryStatistics, summarize
from repro.tracing.events import Operation, TraceRecord
from repro.workload.generator import GeneratedTrace
from repro.workload.projects import FileRole
from repro.workload.sessions import (
    HOUR,
    Period,
    PeriodKind,
    Schedule,
    squash_brief_periods,
)

#: Our synthetic activity runs at a smaller byte scale than the real
#: deployments: machine F's weekly working set here is ~2.2 MB where
#: the paper reports it often exceeded 50 MB.  Hoard budgets are
#: divided by this single global factor (~50 MB / ~2.2 MB) so that "a
#: 50 MB hoard" stresses each simulated user about as much as it
#: stressed the real one: comfortable everywhere except machine F,
#: which reproduces its published ~13 % failed-disconnection rate.
HOARD_SCALE_DIVISOR = 23.0

# Bound to a module name for the per-record miss check (an
# ``Operation.CREATE`` load is slow on CPython 3.11; docs/hot-path.md).
_CREATE = Operation.CREATE

_ROLE_SEVERITY = {
    FileRole.STARTUP: MissSeverity.COMPUTER_UNUSABLE,
    FileRole.PRIMARY: MissSeverity.TASK_CHANGED,
    FileRole.AUXILIARY: MissSeverity.ACTIVITY_MODIFIED,
    FileRole.INFORMATIONAL: MissSeverity.LITTLE_TROUBLE,
    FileRole.PRELOAD: MissSeverity.PRELOAD_ONLY,
    FileRole.TOOL: MissSeverity.ACTIVITY_MODIFIED,
}


@dataclass
class RecordedMiss:
    path: str
    time: float
    active_hours_in: float
    severity: Optional[MissSeverity]   # None for automatic-only
    automatic: bool


@dataclass
class DisconnectionOutcome:
    """One disconnection period's results."""

    period: Period
    active_hours: float
    hoard_bytes: int
    manual_misses: List[RecordedMiss] = field(default_factory=list)
    automatic_misses: List[RecordedMiss] = field(default_factory=list)
    #: The hoard fill before this disconnection was cut short by an
    #: injected surprise disconnection (always False without faults).
    fill_interrupted: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.manual_misses)

    def severities(self) -> Set[MissSeverity]:
        return {m.severity for m in self.manual_misses if m.severity is not None}

    def first_miss_hours(self, severity: Optional[MissSeverity] = None,
                         automatic: bool = False) -> Optional[float]:
        pool = self.automatic_misses if automatic else [
            m for m in self.manual_misses
            if severity is None or m.severity == severity]
        if not pool:
            return None
        return min(m.active_hours_in for m in pool)


@dataclass
class LiveResult:
    """The full live measurement of one machine."""

    machine: str
    hoard_budget: int
    outcomes: List[DisconnectionOutcome] = field(default_factory=list)
    # Ingestion-pipeline counters captured at the end of the run
    # (see repro.observability); surfaced by the CLI's --metrics flag.
    metrics: Optional[Dict[str, float]] = None

    # -- Table 3 -------------------------------------------------------
    def disconnection_durations_hours(self) -> List[float]:
        return [o.period.duration_hours for o in self.outcomes]

    def disconnection_statistics(self) -> SummaryStatistics:
        return summarize(self.disconnection_durations_hours())

    # -- Table 4 -------------------------------------------------------
    def failed_disconnections(self) -> List[DisconnectionOutcome]:
        return [o for o in self.outcomes if o.failed]

    def failures_at_severity(self, severity: MissSeverity) -> int:
        return sum(1 for o in self.outcomes if severity in o.severities())

    def failures_any_severity(self) -> int:
        return len(self.failed_disconnections())

    def automatic_detections(self) -> int:
        return sum(1 for o in self.outcomes if o.automatic_misses)

    # -- Table 5 -------------------------------------------------------
    def first_miss_hours(self, severity: Optional[MissSeverity] = None,
                         automatic: bool = False) -> List[float]:
        values = [o.first_miss_hours(severity, automatic) for o in self.outcomes]
        return [v for v in values if v is not None]


def scaled_hoard_budget(trace: GeneratedTrace,
                        hoard_size_bytes: Optional[int] = None) -> int:
    """Scale the paper's hoard size to the synthetic activity scale."""
    if hoard_size_bytes is None:
        hoard_size_bytes = trace.machine.hoard_size_bytes
    return max(int(hoard_size_bytes / HOARD_SCALE_DIVISOR), 1)


def _severity_for(trace: GeneratedTrace, path: str) -> Optional[MissSeverity]:
    role = trace.roles.get(path)
    if role is None:
        return None
    return _ROLE_SEVERITY[role]


def _active_hours_in(period: Period, schedule: Schedule, when: float) -> float:
    """Active (non-suspended) hours from disconnection start to *when*."""
    suspended = sum(
        max(0.0, min(s.end, when) - max(s.start, period.start))
        for s in schedule.suspensions()
        if s.start < when and s.end > period.start)
    return max(0.0, (when - period.start - suspended)) / HOUR


def _faulted_fill(injector: FaultInjector, selection: HoardSelection,
                  sizes: Callable[[str], int]) -> Tuple[Set[str], int, bool]:
    """Apply fill faults to a hoard selection.

    Returns (files actually hoarded, their bytes, interrupted?).  The
    fill transfers files in sorted order; a surprise disconnection cuts
    it at an injector-chosen point ("the user walks away", paper
    section 5.2.2) and a flaky read silently loses one file.  With no
    fault fired the original selection passes through untouched.
    """
    ordered = sorted(selection.files)
    cut = injector.fill_interruption(len(ordered))
    kept: Set[str] = set()
    interrupted = False
    for index, path in enumerate(ordered):
        if cut is not None and index >= cut:
            interrupted = True
            injector.note_partial_fill(
                sum(sizes(missing) for missing in ordered[index:]))
            break
        if injector.read_fails():
            continue
        kept.add(path)
    if kept == selection.files:
        return selection.files, selection.total_bytes, False
    return kept, sum(sizes(path) for path in kept), interrupted


def _reconnect_sync_attempts(injector: FaultInjector,
                             policy: RetryPolicy) -> None:
    """Drive reintegration attempts through the retry/backoff policy."""
    for attempt in range(1, policy.max_attempts + 1):
        if not injector.sync_attempt_fails():
            return
        if attempt >= policy.max_attempts:
            injector.note_sync_gave_up()
            return
        injector.note_retry(policy.backoff_for(attempt))


def _miss_check(trace: GeneratedTrace, seer: Seer,
                outcome: DisconnectionOutcome, hoard_files: Set[str],
                known_before: Set[str], relevance: bytearray
                ) -> Callable[[int, TraceRecord], None]:
    """The per-record miss check of one disconnection.

    *relevance* holds the records' flags
    (:func:`~repro.simulation.missfree.mark_relevance`); a miss is a
    content reference to a file SEER knew before the disconnection
    but did not hoard.
    """
    period = outcome.period
    created_locally: Set[str] = set()
    missed_projects: Set[str] = set()
    missed_files: Set[str] = set()

    def check(index: int, record: TraceRecord) -> None:
        if record.op is _CREATE and record.ok:
            created_locally.add(record.path)
            return
        if not relevance[index] & _REFERENCED:
            return
        path = record.path
        if path in hoard_files or path in created_locally or \
                path in missed_files:
            return
        if path not in known_before:
            return   # a genuinely new file, not a hoarding failure
        missed_files.add(path)
        active_in = _active_hours_in(period, trace.schedule, record.time)
        # Automatic detection: SEER knew the file existed.
        outcome.automatic_misses.append(RecordedMiss(
            path=path, time=record.time, active_hours_in=active_in,
            severity=None, automatic=True))
        seer.miss_log.record_automatic(path, record.time)
        # Manual recording: the user notices the first miss in each
        # project, records it, and switches away (section 5.2.2).
        severity = _severity_for(trace, path)
        project = dirname(path)
        if severity is not None and project not in missed_projects:
            missed_projects.add(project)
            outcome.manual_misses.append(RecordedMiss(
                path=path, time=record.time, active_hours_in=active_in,
                severity=severity, automatic=False))
            seer.miss_log.record_manual(path, record.time, severity)

    return check


def _first_at_or_after(records: List[TraceRecord], start: int,
                       time: float) -> int:
    """The index of the first record from *start* on stamped at or
    after *time* (``len(records)`` if none is)."""
    index = start
    while index < len(records) and records[index].time < time:
        index += 1
    return index


def simulate_live_usage(trace: GeneratedTrace,
                        parameters: Optional[SeerParameters] = None,
                        hoard_budget: Optional[int] = None,
                        use_investigators: bool = False,
                        size_seed: int = 0,
                        fault_profile: Union[FaultProfile, str, None] = None,
                        fault_seed: int = 0,
                        scorer: Optional[MissFreeScorer] = None
                        ) -> LiveResult:
    """Run the live deployment measurement for one machine.

    *fault_profile* (a :class:`~repro.faults.FaultProfile` or its
    name) turns on deterministic fault injection seeded by
    *fault_seed*; ``None`` and the inert ``none`` profile reproduce
    the fault-free replay exactly.

    *scorer*, a :class:`~repro.simulation.missfree.MissFreeScorer` of
    the same trace, rides this replay: it scores its windows from this
    replay's Seer as the records pass, so one ingest serves both
    measurements (:func:`~repro.simulation.population
    .simulate_population_cell`).
    """
    if parameters is None:
        from repro.simulation import SIM_PARAMETERS
        parameters = SIM_PARAMETERS
    budget = hoard_budget if hoard_budget is not None \
        else scaled_hoard_budget(trace)
    sizes = make_size_function(trace, size_seed)
    seer = replay_seer(trace, parameters, use_investigators)

    if isinstance(fault_profile, str):
        fault_profile = profile_from_name(fault_profile)
    injector: Optional[FaultInjector] = None
    retry_policy = RetryPolicy()
    if fault_profile is not None and not fault_profile.inert:
        injector = FaultInjector(fault_profile, seed=fault_seed,
                                 metrics=seer.metrics)
        retry_policy = RetryPolicy.from_profile(fault_profile)

    schedule = squash_brief_periods(
        trace.schedule, minimum_seconds=parameters.minimum_disconnection_seconds)
    result = LiveResult(machine=trace.machine.name, hoard_budget=budget)

    records = trace.records
    # Without a scorer, only disconnected records are flagged.
    relevance = scorer.relevance if scorer is not None \
        else bytearray(len(records))
    position = 0
    for period in schedule.periods:
        if period.kind is PeriodKind.SUSPENDED:
            continue
        stop = _first_at_or_after(records, position, period.end)
        if period.kind is PeriodKind.CONNECTED:
            replay(seer, trace, position, stop, scorer)
            position = stop
            continue

        # Disconnection imminent: recompute the hoard (section 2).
        selection = seer.build_hoard(budget, sizes=sizes)
        hoard_files: Set[str] = selection.files
        hoard_bytes = selection.total_bytes
        fill_interrupted = False
        if injector is not None:
            hoard_files, hoard_bytes, fill_interrupted = \
                _faulted_fill(injector, selection, sizes)
        seer.disconnect()
        outcome = DisconnectionOutcome(
            period=period,
            active_hours=trace.schedule.active_disconnected_time(period) / HOUR,
            hoard_bytes=hoard_bytes,
            fill_interrupted=fill_interrupted)
        known_before = seer.correlator.known_files() | selection.files \
            | seer.always_hoard_paths()
        if scorer is None:
            mark_relevance(trace, relevance, position, stop)
        replay(seer, trace, position, stop, scorer,
               _miss_check(trace, seer, outcome, hoard_files, known_before,
                           relevance))
        position = stop
        seer.reconnect()
        if injector is not None:
            _reconnect_sync_attempts(injector, retry_policy)
        result.outcomes.append(outcome)
    # Records stamped after the final schedule period still belong to
    # the trace: feed them to the observer so end-of-trace correlator
    # state and ingest metrics do not undercount.
    replay(seer, trace, position, len(records), scorer)
    result.metrics = seer.metrics.snapshot()
    return result
