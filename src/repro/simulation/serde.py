"""Exact JSON round-trips for simulation results.

The parallel experiment runner (:mod:`repro.simulation.runner`)
checkpoints every completed grid cell to disk and reloads it on
``--resume``; for a resumed sweep to be byte-identical to an
uninterrupted one, serialization must be *lossless*.  Everything here
is therefore plain JSON of ints, floats and strings: Python's ``json``
module round-trips both exactly (floats via shortest-repr), enums are
stored by name, and nested dataclasses become tagged dictionaries.

``result_to_data``/``result_from_data`` dispatch on a ``"type"`` tag so
the runner can checkpoint heterogeneous grids (miss-free cells, live
cells, reduced population cells and tuning-objective cells) into one
results directory.

Persistence itself lives one layer up, in
:mod:`repro.simulation.store`: this module only defines the payload
dictionaries and their canonical byte form
(:func:`canonical_bytes`/:func:`payload_fingerprint`), which the
checkpoint store uses to detect corrupt or torn checkpoints.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, List, Optional, Union

from repro.core.hoard import MissSeverity
from repro.simulation.live import (
    DisconnectionOutcome,
    LiveResult,
    RecordedMiss,
)
from repro.simulation.missfree import MissFreeResult, WindowResult
from repro.simulation.population import PopulationCellResult
from repro.workload.sessions import Period, PeriodKind

#: Anything the runner knows how to checkpoint.
ShardResult = Union[MissFreeResult, LiveResult, PopulationCellResult, float]


def canonical_bytes(data: Dict) -> bytes:
    """The canonical byte form of a JSON-safe payload dictionary.

    Key order and whitespace are normalized (sorted keys, compact
    separators) so two payloads that parse equal serialize to the same
    bytes regardless of which process produced them.  Restore
    equivalence tests and checkpoint fingerprints both compare these
    bytes.
    """
    return json.dumps(data, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def payload_fingerprint(data: Dict) -> str:
    """Stable 8-hex-digit digest of a payload (crc32 of canonical bytes).

    The checkpoint store records this next to each checkpoint and
    verifies it on read, so a torn write or bit rot is *detected* and the cell
    recomputed instead of silently poisoning a resumed sweep.  crc32
    (not the builtin ``hash``) keeps the digest identical across
    processes -- the RL003 incident class.
    """
    return f"{zlib.crc32(canonical_bytes(data)) & 0xFFFFFFFF:08x}"


# ----------------------------------------------------------------------
# miss-free results
# ----------------------------------------------------------------------
def _window_to_data(window: WindowResult) -> Dict:
    return {
        "index": window.index,
        "start": window.start,
        "end": window.end,
        "referenced_files": window.referenced_files,
        "working_set_bytes": window.working_set_bytes,
        "seer_bytes": window.seer_bytes,
        "lru_bytes": window.lru_bytes,
        "uncoverable_files": window.uncoverable_files,
        "spy_bytes": window.spy_bytes,
        "coda_bytes": window.coda_bytes,
    }


def _window_from_data(data: Dict) -> WindowResult:
    return WindowResult(**data)


def missfree_to_data(result: MissFreeResult) -> Dict:
    return {
        "type": "missfree",
        "machine": result.machine,
        "window_seconds": result.window_seconds,
        "use_investigators": result.use_investigators,
        "seed": result.seed,
        "windows": [_window_to_data(w) for w in result.windows],
        "metrics": result.metrics,
    }


def missfree_from_data(data: Dict) -> MissFreeResult:
    return MissFreeResult(
        machine=data["machine"],
        window_seconds=data["window_seconds"],
        use_investigators=data["use_investigators"],
        seed=data["seed"],
        windows=[_window_from_data(w) for w in data["windows"]],
        metrics=data["metrics"],
    )


# ----------------------------------------------------------------------
# live results
# ----------------------------------------------------------------------
def _period_to_data(period: Period) -> Dict:
    return {"kind": period.kind.name, "start": period.start,
            "end": period.end}


def _period_from_data(data: Dict) -> Period:
    return Period(kind=PeriodKind[data["kind"]], start=data["start"],
                  end=data["end"])


def _miss_to_data(miss: RecordedMiss) -> Dict:
    return {
        "path": miss.path,
        "time": miss.time,
        "active_hours_in": miss.active_hours_in,
        "severity": None if miss.severity is None else miss.severity.name,
        "automatic": miss.automatic,
    }


def _miss_from_data(data: Dict) -> RecordedMiss:
    severity = data["severity"]
    return RecordedMiss(
        path=data["path"], time=data["time"],
        active_hours_in=data["active_hours_in"],
        severity=None if severity is None else MissSeverity[severity],
        automatic=data["automatic"])


def _outcome_to_data(outcome: DisconnectionOutcome) -> Dict:
    return {
        "period": _period_to_data(outcome.period),
        "active_hours": outcome.active_hours,
        "hoard_bytes": outcome.hoard_bytes,
        "manual_misses": [_miss_to_data(m) for m in outcome.manual_misses],
        "automatic_misses": [_miss_to_data(m)
                             for m in outcome.automatic_misses],
        "fill_interrupted": outcome.fill_interrupted,
    }


def _outcome_from_data(data: Dict) -> DisconnectionOutcome:
    return DisconnectionOutcome(
        period=_period_from_data(data["period"]),
        active_hours=data["active_hours"],
        hoard_bytes=data["hoard_bytes"],
        manual_misses=[_miss_from_data(m) for m in data["manual_misses"]],
        automatic_misses=[_miss_from_data(m)
                          for m in data["automatic_misses"]],
        fill_interrupted=data.get("fill_interrupted", False))


def live_to_data(result: LiveResult) -> Dict:
    return {
        "type": "live",
        "machine": result.machine,
        "hoard_budget": result.hoard_budget,
        "outcomes": [_outcome_to_data(o) for o in result.outcomes],
        "metrics": result.metrics,
    }


def live_from_data(data: Dict) -> LiveResult:
    return LiveResult(
        machine=data["machine"],
        hoard_budget=data["hoard_budget"],
        outcomes=[_outcome_from_data(o) for o in data["outcomes"]],
        metrics=data["metrics"],
    )


# ----------------------------------------------------------------------
# population cells
# ----------------------------------------------------------------------
def population_to_data(result: PopulationCellResult) -> Dict:
    return {
        "type": "population",
        "machine": result.machine,
        "activity": result.activity,
        "n_disconnections": result.n_disconnections,
        "uses_investigators": result.uses_investigators,
        "hoard_budget": result.hoard_budget,
        "window_seconds": result.window_seconds,
        "windows": result.windows,
        "referenced_files": result.referenced_files,
        "mean_working_set": result.mean_working_set,
        "mean_seer": result.mean_seer,
        "mean_lru": result.mean_lru,
        "mean_spy": result.mean_spy,
        "mean_coda": result.mean_coda,
        "disconnections": result.disconnections,
        "failed_disconnections": result.failed_disconnections,
        "automatic_detections": result.automatic_detections,
        "median_first_miss_hours": result.median_first_miss_hours,
        "metrics": result.metrics,
    }


def population_from_data(data: Dict) -> PopulationCellResult:
    return PopulationCellResult(
        machine=data["machine"],
        activity=data["activity"],
        n_disconnections=data["n_disconnections"],
        uses_investigators=data["uses_investigators"],
        hoard_budget=data["hoard_budget"],
        window_seconds=data["window_seconds"],
        windows=data["windows"],
        referenced_files=data["referenced_files"],
        mean_working_set=data["mean_working_set"],
        mean_seer=data["mean_seer"],
        mean_lru=data["mean_lru"],
        mean_spy=data["mean_spy"],
        mean_coda=data["mean_coda"],
        disconnections=data["disconnections"],
        failed_disconnections=data["failed_disconnections"],
        automatic_detections=data["automatic_detections"],
        median_first_miss_hours=data["median_first_miss_hours"],
        metrics=data["metrics"],
    )


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def result_to_data(result: ShardResult) -> Dict:
    """Serialize any shard result to a JSON-safe tagged dictionary."""
    if isinstance(result, MissFreeResult):
        return missfree_to_data(result)
    if isinstance(result, LiveResult):
        return live_to_data(result)
    if isinstance(result, PopulationCellResult):
        return population_to_data(result)
    if isinstance(result, (int, float)) and not isinstance(result, bool):
        return {"type": "objective", "score": float(result)}
    raise TypeError(f"cannot serialize shard result: {type(result)!r}")


def comparable_data(result: ShardResult) -> Dict:
    """Serialized form with wall-clock instrumentation stripped.

    The ``metrics`` snapshot carries timings and rates that
    legitimately vary run to run; everything else a shard produces is
    deterministic.  Equivalence tests (serial vs parallel vs resumed)
    compare these dictionaries.
    """
    data = result_to_data(result)
    data.pop("metrics", None)
    return data


def result_from_data(data: Dict) -> ShardResult:
    """Inverse of :func:`result_to_data`."""
    kind = data.get("type")
    if kind == "missfree":
        return missfree_from_data(data)
    if kind == "live":
        return live_from_data(data)
    if kind == "population":
        return population_from_data(data)
    if kind == "objective":
        return data["score"]
    raise ValueError(f"unknown shard result type: {kind!r}")
