"""Parallel experiment runner with checkpoint/resume.

The paper's evaluation replays nine machine traces across seeds and two
disconnection periods -- an embarrassingly parallel grid that this
module shards across a :mod:`multiprocessing` worker pool.  Three ideas
organize everything:

* **Deterministic shard identity.**  Each grid cell is a frozen
  :class:`ShardSpec` -- (simulator, machine, trace seed, days,
  disconnection period, investigators, parameters) -- whose
  :attr:`~ShardSpec.shard_id` is a pure function of those values.
  Workers regenerate the trace from the spec, so a cell's result is
  reproducible regardless of scheduling, pool size or which process
  ran it.

* **Checkpointing.**  With a ``checkpoint_dir``, every completed cell
  is committed to a :class:`repro.simulation.store.SqliteStore` -- one
  WAL-mode sqlite database -- as soon as it finishes.  A crash loses
  at most the cells still running.

* **Resume.**  With ``resume=True`` the runner reloads every valid
  checkpoint and runs only the missing cells.  Corrupt or truncated
  entries, stale schema versions, fingerprint mismatches and entries
  whose recorded spec does not match the requested cell are all
  discarded and recomputed -- and *counted*
  (:attr:`RunStats.corrupt_discarded`, ``runner.store.corrupt_discarded``).

* **Streaming aggregation.**  A *consume* callback receives each
  outcome in grid order and nothing is accumulated: with a store the
  join holds one cell in memory at a time, so sweep memory is
  O(machines of aggregate), not O(cells).

Results always travel through the JSON serde -- even with ``jobs=1``
and no checkpoint directory -- so serial, parallel and resumed sweeps
are cell-for-cell identical
(``tests/simulation/test_store_differential.py``).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import time
import zlib
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.observability import Metrics
from repro.simulation.serde import ShardResult, result_from_data, result_to_data
from repro.simulation.store import SqliteStore

if TYPE_CHECKING:   # workers import these lazily; annotations only here
    from repro.core.parameters import SeerParameters
    from repro.workload.generator import GeneratedTrace

DAY = 86400.0
WEEK = 7 * DAY

#: The value types a SeerParameters field may hold.  Spelled out (not
#: ``object``): the checkpoint codec (:mod:`repro.simulation.serde`)
#: refuses to build for a field JSON cannot round-trip.
ParamValue = Union[int, float, str, bool]


@dataclass(frozen=True)
class ShardSpec:
    """One cell of the experiment grid.

    ``parameter_overrides`` is either empty (the harness defaults,
    ``SIM_PARAMETERS``) or the *complete* field set of a
    :class:`~repro.core.parameters.SeerParameters`, as sorted
    (name, value) pairs -- complete so a worker process can rebuild the
    exact parameters without access to the caller's objects.
    """

    kind: str   # "missfree" | "live" | "population" | "service"
    machine: str
    trace_seed: int
    days: float
    window_seconds: Optional[float] = None    # missfree/population only
    use_investigators: bool = False
    size_seed: int = 0
    parameter_overrides: Tuple[Tuple[str, ParamValue], ...] = ()
    # Fault injection (live cells only): the *name* of a
    # repro.faults.FaultProfile plus the injector seed, so the config
    # survives serde/checkpointing and a worker can rebuild it.
    fault_profile: Optional[str] = None
    fault_seed: int = 0

    def __post_init__(self) -> None:
        # "service" cells are never executed by this runner -- the
        # hoard daemon (repro.service) reuses ShardSpec purely as the
        # checkpoint-store key for a tenant's correlator state.
        if self.kind not in ("missfree", "live", "population", "service"):
            raise ValueError(f"unknown shard kind: {self.kind!r}")
        if self.fault_profile is not None:
            if self.kind not in ("live", "population"):
                raise ValueError("fault profiles apply to live and "
                                 "population cells only")
            from repro.faults import profile_from_name
            profile_from_name(self.fault_profile)   # validate eagerly

    @property
    def shard_id(self) -> str:
        """Deterministic, filesystem-safe cell identity."""
        parts = [self.kind, self.machine,
                 f"seed{self.trace_seed}", f"d{self.days:g}"]
        if self.window_seconds is not None:
            parts.append(f"w{self.window_seconds:g}")
        if self.use_investigators:
            parts.append("inv")
        if self.size_seed:
            parts.append(f"z{self.size_seed}")
        if self.fault_profile is not None:
            parts.append(f"f{self.fault_profile}")
            parts.append(f"fs{self.fault_seed}")
        if self.parameter_overrides:
            blob = json.dumps([[n, v] for n, v in self.parameter_overrides],
                              sort_keys=True).encode("utf-8")
            parts.append(f"p{zlib.crc32(blob) & 0xFFFFFFFF:08x}")
        return "-".join(parts)

    def parameters(self) -> Optional["SeerParameters"]:
        """Rebuild the SeerParameters for this cell (None = defaults)."""
        if not self.parameter_overrides:
            return None
        from repro.core.parameters import SeerParameters
        return SeerParameters(**dict(self.parameter_overrides))


def spec_for_parameters(spec: ShardSpec,
                        parameters: "SeerParameters") -> ShardSpec:
    """Copy *spec* carrying the complete field set of *parameters*."""
    overrides = tuple(sorted(dataclasses.asdict(parameters).items()))
    return dataclasses.replace(spec, parameter_overrides=overrides)


# ----------------------------------------------------------------------
# grid builders
# ----------------------------------------------------------------------
def figure2_grid(machines: Sequence[str], days: float, seed: int,
                 investigators: bool = False) -> List[ShardSpec]:
    """The miss-free cells behind Figure 2: daily and weekly windows
    per machine, plus investigator runs for the machines the paper
    marks with an asterisk when requested."""
    from repro.workload import machine_profile
    shards: List[ShardSpec] = []
    for machine in machines:
        for window in (DAY, WEEK):
            shards.append(ShardSpec("missfree", machine, seed, days,
                                    window_seconds=window))
        if investigators and machine_profile(machine).uses_investigators:
            for window in (DAY, WEEK):
                shards.append(ShardSpec("missfree", machine, seed, days,
                                        window_seconds=window,
                                        use_investigators=True))
    return shards


def reproduction_grid(machines: Sequence[str], days: float, seed: int,
                      include_live: bool = True,
                      include_investigators: bool = True,
                      fault_profile: Optional[str] = None,
                      fault_seed: int = 0) -> List[ShardSpec]:
    """The full-study grid behind ``run_reproduction`` (Figures 2-3 and
    Tables 3-5), in the same order the serial loop produced.  A
    *fault_profile* name applies fault injection to the live cells
    (the miss-free cells replay no disconnections to fault)."""
    shards: List[ShardSpec] = []
    for machine in machines:
        shards.extend(figure2_grid([machine], days, seed,
                                   investigators=include_investigators))
        if include_live:
            shards.append(ShardSpec("live", machine, seed, days,
                                    fault_profile=fault_profile,
                                    fault_seed=fault_seed))
    return shards


def population_grid(machines: int, population_seed: int, days: float,
                    window_seconds: float = DAY,
                    fault_profile: Optional[str] = None,
                    fault_seed: int = 0) -> List[ShardSpec]:
    """One reduced ``population`` cell per synthetic machine.

    The trace seed is the machine's own crc32-derived seed, so the
    whole cell -- profile, schedule, trace, both replays -- is a pure
    function of ``(population_seed, index)`` and the grid arguments.
    Machines that Table 4 would mark as investigator users run with
    investigators, following the sampled profile.
    """
    from repro.workload import (machine_seed, population_machine_name,
                                sample_profile)
    shards: List[ShardSpec] = []
    for index in range(machines):
        profile = sample_profile(population_seed, index)
        shards.append(ShardSpec(
            "population", population_machine_name(population_seed, index),
            machine_seed(population_seed, index), days,
            window_seconds=window_seconds,
            use_investigators=profile.uses_investigators,
            fault_profile=fault_profile, fault_seed=fault_seed))
    return shards


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
# One generated trace is reused by every cell of the same
# (machine, seed, days) that lands on this worker process.
_TRACE_CACHE: Dict[Tuple[str, int, float], "GeneratedTrace"] = {}
_TRACE_CACHE_LIMIT = 4


def _trace_for(machine: str, seed: int, days: float) -> "GeneratedTrace":
    key = (machine, seed, days)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        # resolve_profile covers Table 3's nine machines *and* synthetic
        # population members (pop<seed>-<index>) from the name alone, so
        # any worker process can rebuild any cell's trace.
        from repro.workload import generate_machine_trace, resolve_profile
        if len(_TRACE_CACHE) >= _TRACE_CACHE_LIMIT:
            _TRACE_CACHE.clear()
        trace = generate_machine_trace(resolve_profile(machine), seed=seed,
                                       days=days)
        _TRACE_CACHE[key] = trace
    return trace


def execute_shard(spec: ShardSpec) -> ShardResult:
    """Run one grid cell (in whatever process this is)."""
    if spec.kind == "service":
        raise ValueError("service specs key hoard-daemon checkpoints and "
                         "cannot be executed as grid cells")
    trace = _trace_for(spec.machine, spec.trace_seed, spec.days)
    parameters = spec.parameters()
    if spec.kind == "missfree":
        from repro.simulation.missfree import simulate_miss_free
        return simulate_miss_free(trace, spec.window_seconds,
                                  parameters=parameters,
                                  use_investigators=spec.use_investigators,
                                  seed=spec.size_seed)
    if spec.kind == "live":
        from repro.simulation.live import simulate_live_usage
        return simulate_live_usage(trace, parameters=parameters,
                                   use_investigators=spec.use_investigators,
                                   size_seed=spec.size_seed,
                                   fault_profile=spec.fault_profile,
                                   fault_seed=spec.fault_seed)
    # "population": one fleet machine, one replay scored both ways.
    from repro.simulation.population import simulate_population_cell
    return simulate_population_cell(
        trace, spec.window_seconds or DAY, parameters=parameters,
        use_investigators=spec.use_investigators,
        size_seed=spec.size_seed, fault_profile=spec.fault_profile,
        fault_seed=spec.fault_seed)


def _run_shard(spec: ShardSpec) -> Tuple[str, Dict, float]:
    """Pool entry point: returns (shard_id, result data, seconds)."""
    start = time.perf_counter()
    data = result_to_data(execute_shard(spec))
    return spec.shard_id, data, time.perf_counter() - start


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
@dataclass
class ShardOutcome:
    """One completed cell: its spec, result and provenance."""

    spec: ShardSpec
    result: ShardResult
    elapsed_seconds: float = 0.0
    from_checkpoint: bool = False


@dataclass
class RunStats:
    """What a sweep did, for tests and the --metrics report."""

    shards_total: int = 0
    shards_run: int = 0
    shards_from_checkpoint: int = 0
    corrupt_discarded: int = 0
    wall_seconds: float = 0.0
    busy_seconds: float = 0.0
    jobs: int = 1

    @property
    def pool_utilization(self) -> float:
        """Fraction of worker capacity kept busy (1.0 = perfect)."""
        if self.wall_seconds <= 0 or self.jobs < 1:
            return 0.0
        return self.busy_seconds / (self.wall_seconds * self.jobs)


def _absorb_shard_metrics(metrics: Metrics, spec: ShardSpec, data: Dict,
                          elapsed: float) -> None:
    """Merge one worker's contribution into the aggregate metrics."""
    metrics.incr("runner.shards_completed")
    metrics.observe(f"runner.shard.{spec.kind}", elapsed)
    metrics.observe(f"runner.machine.{spec.machine}", elapsed)
    metrics.mark("runner.completions")
    snapshot = data.get("metrics") if isinstance(data, dict) else None
    if isinstance(snapshot, dict):
        metrics.absorb_counters(snapshot)


def run_shards(shards: Sequence[ShardSpec], jobs: int = 1,
               checkpoint_dir: Optional[str] = None, resume: bool = False,
               metrics: Optional[Metrics] = None,
               progress: Optional[Callable[[str], None]] = None,
               stats: Optional[RunStats] = None,
               store: str = "sqlite",
               consume: Optional[Callable[[ShardOutcome], None]] = None
               ) -> List[ShardOutcome]:
    """Run every cell of *shards*, in parallel when ``jobs > 1``.

    Outcomes are produced in grid order regardless of completion
    order, so downstream rendering is identical for any pool size.
    ``metrics`` (a :class:`repro.observability.Metrics`) receives
    per-shard timers, per-machine cost, merged ingestion counters,
    ``runner.store.*`` storage counters and pool utilization;
    ``stats`` (a :class:`RunStats`) receives the sweep-shape summary.

    With a *checkpoint_dir*, completed cells are persisted in a
    :class:`~repro.simulation.store.SqliteStore` there, each committed
    as soon as it finishes.  *store* names that store and accepts only
    ``"sqlite"``.

    With *consume*, each :class:`ShardOutcome` is streamed to the
    callback in grid order and an empty list is returned: combined
    with a store, the join keeps one cell in memory at a time instead
    of materializing the whole grid (O(aggregate), not O(cells)).
    """
    shards = list(shards)
    ids = [spec.shard_id for spec in shards]
    if len(set(ids)) != len(ids):
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate shard ids in grid: {duplicates}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if store != "sqlite":
        raise ValueError(f"unknown checkpoint store {store!r}; "
                         f"expected 'sqlite'")
    if stats is None:
        stats = RunStats()
    stats.shards_total = len(shards)
    stats.jobs = jobs
    if metrics is not None:
        metrics.incr("runner.shards_total", len(shards))
        metrics.incr("runner.jobs", jobs)

    start = time.perf_counter()
    state: Optional[SqliteStore] = None
    if checkpoint_dir:
        state = SqliteStore(checkpoint_dir, metrics=metrics).open()

    try:
        # With both a store and a consumer the results stay on disk
        # until the final in-order pass; otherwise they are buffered.
        streaming = consume is not None and state is not None
        buffered: Dict[str, Tuple[Optional[Dict], float, bool]] = {}
        pending: List[ShardSpec] = []
        for spec in shards:
            entry = state.get(spec) if (state is not None and resume) \
                else None
            if entry is not None:
                buffered[spec.shard_id] = (
                    None if streaming else entry.result,
                    entry.elapsed_seconds, True)
                stats.shards_from_checkpoint += 1
                if metrics is not None:
                    metrics.incr("runner.shards_from_checkpoint")
                if progress is not None:
                    progress(f"machine {spec.machine}: shard "
                             f"{spec.shard_id} restored from checkpoint")
            else:
                pending.append(spec)

        by_id = {spec.shard_id: spec for spec in shards}

        def finish(shard_id: str, data: Dict, elapsed: float) -> None:
            spec = by_id[shard_id]
            if state is not None:
                # Committed now: a sweep killed later keeps this cell.
                state.put(spec, data, elapsed)
                state.flush()
            buffered[shard_id] = (None if streaming else data,
                                  elapsed, False)
            stats.shards_run += 1
            stats.busy_seconds += elapsed
            if metrics is not None:
                _absorb_shard_metrics(metrics, spec, data, elapsed)
            if progress is not None:
                progress(f"machine {spec.machine}: shard {shard_id} "
                         f"done in {elapsed:.2f}s")

        if pending:
            if jobs == 1 or len(pending) == 1:
                for spec in pending:
                    finish(*_run_shard(spec))
            else:
                workers = min(jobs, len(pending))
                with multiprocessing.Pool(processes=workers) as pool:
                    for shard_id, data, elapsed in pool.imap_unordered(
                            _run_shard, pending):
                        finish(shard_id, data, elapsed)

        stats.wall_seconds = time.perf_counter() - start
        if state is not None:
            stats.corrupt_discarded = state.corrupt_discarded
        if metrics is not None:
            metrics.observe("runner.wall", stats.wall_seconds)
            metrics.observe("runner.busy", stats.busy_seconds)
            metrics.incr("runner.pool_utilization_percent",
                         int(round(100 * stats.pool_utilization)))
            if state is not None:
                metrics.incr("runner.store.bytes_on_disk",
                             state.bytes_on_disk())

        outcomes: List[ShardOutcome] = []
        for spec in shards:
            data, elapsed, from_checkpoint = buffered[spec.shard_id]
            if data is None:
                assert state is not None
                entry = state.get(spec)
                if entry is None:   # store damaged between put and join
                    raise RuntimeError(
                        f"checkpoint for {spec.shard_id} is missing or "
                        f"unusable at the join; the store changed while "
                        f"the sweep ran")
                data = entry.result
            outcome = ShardOutcome(
                spec=spec, result=result_from_data(data),
                elapsed_seconds=elapsed, from_checkpoint=from_checkpoint)
            if consume is not None:
                consume(outcome)
            else:
                outcomes.append(outcome)
        return outcomes
    finally:
        if state is not None:
            state.close()
