"""The per-pass replays, kept as the shared replay's oracle.

:mod:`repro.simulation.missfree`, :mod:`repro.simulation.live` and
:mod:`repro.simulation.population` replay a trace once: one
:class:`~repro.core.seer.Seer` ingests it, the live replay drives that
Seer, and a :class:`~repro.simulation.missfree.MissFreeScorer` rides
the same record loop.  This module keeps the loops they replaced, one
Seer and one pass over the trace per measurement:

* :func:`simulate_miss_free` -- pre-slice the trace into windows, then
  ingest window by window, asking ``_is_relevant_reference`` again for
  every record it feeds to LRU, CODA and SPY;
* :func:`simulate_live_usage` -- walk the schedule's periods, asking
  ``_is_relevant_reference`` for every disconnected record;
* :func:`simulate_population_cell` -- both of the above over one
  trace, their metrics merged.

``tests/simulation/test_replay_equivalence.py`` compares the shipped
replay with these, cell by cell, in
``canonical_bytes(comparable_data(...))``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Union

from repro.baselines.coda_priority import CodaPriorityManager
from repro.baselines.lru import lru_miss_free_size
from repro.baselines.optimal import working_set_size
from repro.baselines.spy_utility import SpyUtilityManager
from repro.core.hoard import HoardManager
from repro.core.parameters import SeerParameters
from repro.core.seer import Seer
from repro.faults import (FaultInjector, FaultProfile, RetryPolicy,
                          profile_from_name)
from repro.fs.paths import dirname
from repro.observability.registry import DERIVED_SUFFIXES
from repro.simulation.live import (
    DisconnectionOutcome,
    LiveResult,
    RecordedMiss,
    _active_hours_in,
    _faulted_fill,
    _reconnect_sync_attempts,
    _severity_for,
    scaled_hoard_budget,
)
from repro.simulation.missfree import (
    _LRU_FEED_OPS,
    MissFreeResult,
    WindowResult,
    _is_relevant_reference,
    build_investigators,
    make_size_function,
)
from repro.simulation.population import PopulationCellResult, _median
from repro.tracing.events import Operation, TraceRecord
from repro.workload.generator import GeneratedTrace
from repro.workload.sessions import HOUR, PeriodKind, squash_brief_periods


def simulate_miss_free(trace: GeneratedTrace, window_seconds: float,
                       parameters: Optional[SeerParameters] = None,
                       use_investigators: bool = False,
                       seed: int = 0,
                       include_spy: bool = False,
                       include_coda: bool = False) -> MissFreeResult:
    """Replay *trace* with fixed simulated disconnection windows."""
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
    hoard_manager = HoardManager()

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
    coda = CodaPriorityManager() if include_coda else None

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
    """Drive the SPY UTILITY baseline from raw trace records."""
    if record.op is Operation.FORK:
        spy.on_fork(record.pid, record.ppid, program=record.program)
    elif record.op is Operation.EXEC and record.ok:
        spy.on_exec(record.pid, record.path)
    elif record.op is Operation.EXIT:
        spy.on_exit(record.pid)
    elif _is_relevant_reference(record, trace):
        spy.on_access(record.pid, record.path)


def simulate_live_usage(trace: GeneratedTrace,
                        parameters: Optional[SeerParameters] = None,
                        hoard_budget: Optional[int] = None,
                        use_investigators: bool = False,
                        size_seed: int = 0,
                        fault_profile: Union[FaultProfile, str, None] = None,
                        fault_seed: int = 0) -> LiveResult:
    """Run the live deployment measurement for one machine."""
    if parameters is None:
        from repro.simulation import SIM_PARAMETERS
        parameters = SIM_PARAMETERS
    budget = hoard_budget if hoard_budget is not None \
        else scaled_hoard_budget(trace)
    sizes = make_size_function(trace, size_seed)
    investigators = build_investigators(trace) if use_investigators else []
    from repro.simulation import simulation_control
    seer = Seer(kernel=trace.kernel, parameters=parameters,
                control=simulation_control(),
                investigators=investigators, attach=False)

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

    record_index = 0
    records = trace.records
    for period in schedule.periods:
        if period.kind is PeriodKind.SUSPENDED:
            continue
        if period.kind is PeriodKind.CONNECTED:
            while record_index < len(records) and \
                    records[record_index].time < period.end:
                seer.observer.handle_record(records[record_index])
                record_index += 1
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
        created_locally: Set[str] = set()
        missed_projects: Set[str] = set()
        missed_files: Set[str] = set()
        known_before = seer.correlator.known_files() | selection.files \
            | seer.always_hoard_paths()
        while record_index < len(records) and \
                records[record_index].time < period.end:
            record = records[record_index]
            record_index += 1
            seer.observer.handle_record(record)
            if record.op is Operation.CREATE and record.ok:
                created_locally.add(record.path)
                continue
            if not _is_relevant_reference(record, trace):
                continue
            path = record.path
            if path in hoard_files or path in created_locally or \
                    path in missed_files:
                continue
            if path not in known_before:
                continue   # a genuinely new file, not a hoarding failure
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
        seer.reconnect()
        if injector is not None:
            _reconnect_sync_attempts(injector, retry_policy)
        result.outcomes.append(outcome)
    # Records stamped after the final schedule period still belong to
    # the trace: feed them to the observer so end-of-trace correlator
    # state and ingest metrics do not undercount.
    while record_index < len(records):
        seer.observer.handle_record(records[record_index])
        record_index += 1
    result.metrics = seer.metrics.snapshot()
    return result


def _merged_metrics(miss: MissFreeResult,
                    live: LiveResult) -> Dict[str, float]:
    """One snapshot for the cell: miss-free pass counters plus the
    live pass's plain counters."""
    merged: Dict[str, float] = dict(miss.metrics or {})
    for name, value in (live.metrics or {}).items():
        if name.endswith(DERIVED_SUFFIXES):
            continue
        merged[name] = merged.get(name, 0.0) + value
    return merged


def simulate_population_cell(trace: GeneratedTrace,
                             window_seconds: float,
                             parameters: Optional[SeerParameters] = None,
                             use_investigators: bool = False,
                             size_seed: int = 0,
                             fault_profile: Optional[str] = None,
                             fault_seed: int = 0) -> PopulationCellResult:
    """Run both passes for one machine and reduce them to a scorecard."""
    miss = simulate_miss_free(trace, window_seconds, parameters=parameters,
                              use_investigators=use_investigators,
                              seed=size_seed, include_spy=True,
                              include_coda=True)
    live = simulate_live_usage(trace, parameters=parameters,
                               use_investigators=use_investigators,
                               size_seed=size_seed,
                               fault_profile=fault_profile,
                               fault_seed=fault_seed)
    first_miss: List[float] = live.first_miss_hours()
    return PopulationCellResult(
        machine=trace.machine.name,
        activity=trace.machine.activity,
        n_disconnections=trace.machine.n_disconnections,
        uses_investigators=use_investigators,
        hoard_budget=live.hoard_budget,
        window_seconds=window_seconds,
        windows=len(miss.windows),
        referenced_files=sum(w.referenced_files for w in miss.windows),
        mean_working_set=miss.mean_working_set,
        mean_seer=miss.mean_seer,
        mean_lru=miss.mean_lru,
        mean_spy=miss.mean_spy,
        mean_coda=miss.mean_coda,
        disconnections=len(live.outcomes),
        failed_disconnections=live.failures_any_severity(),
        automatic_detections=live.automatic_detections(),
        median_first_miss_hours=_median(first_miss),
        metrics=_merged_metrics(miss, live),
    )
