"""The checkpoint payload format, pinned byte for byte.

``test_serde.py`` round-trips payloads within one build, which cannot
notice a format change: a store written by an older build would then
be discarded (fingerprint mismatch) or misread on ``--resume``.  These
literals are the canonical bytes of fixed results and the JSON a
store writes for a spec, so any change to field names, key order,
enum encoding or tuple encoding fails here first.  The test imports
only the long-standing entry points (``result_to_data``,
``result_from_data``, ``canonical_bytes``, ``SqliteStore``), so it
runs unchanged against any build that claims to read old stores.
"""

import contextlib
import json
import sqlite3

from repro.core.hoard import MissSeverity
from repro.simulation.live import (
    DisconnectionOutcome,
    LiveResult,
    RecordedMiss,
)
from repro.simulation.missfree import MissFreeResult, WindowResult
from repro.simulation.population import PopulationCellResult
from repro.simulation.runner import ShardSpec
from repro.simulation.serde import (
    canonical_bytes,
    result_from_data,
    result_to_data,
)
from repro.simulation.store import SqliteStore
from repro.workload.sessions import Period, PeriodKind


def missfree() -> MissFreeResult:
    return MissFreeResult(
        machine="C", window_seconds=86400.0, use_investigators=True, seed=2,
        windows=[
            WindowResult(index=0, start=0.0, end=86400.0,
                         referenced_files=12, working_set_bytes=1048576,
                         seer_bytes=1310720, lru_bytes=9437184,
                         uncoverable_files=1, spy_bytes=2097152,
                         coda_bytes=3145728),
            WindowResult(index=3, start=259200.0, end=345600.0,
                         referenced_files=7, working_set_bytes=73728,
                         seer_bytes=81920, lru_bytes=524288,
                         uncoverable_files=0),
        ],
        metrics={"correlator.references": 1234.0, "neighbor.evictions": 5})


def live() -> LiveResult:
    return LiveResult(
        machine="F", hoard_budget=2279513,
        outcomes=[
            DisconnectionOutcome(
                period=Period(PeriodKind.DISCONNECTED, start=3600.0,
                              end=7200.5),
                active_hours=0.75, hoard_bytes=2000000,
                manual_misses=[RecordedMiss(
                    path="/home/u/p/main.c", time=4000.0,
                    active_hours_in=0.1 + 0.2,
                    severity=MissSeverity.TASK_CHANGED, automatic=False)],
                automatic_misses=[RecordedMiss(
                    path="/home/u/p/util.h", time=4001.5,
                    active_hours_in=0.11, severity=None, automatic=True)],
                fill_interrupted=True),
            DisconnectionOutcome(
                period=Period(PeriodKind.DISCONNECTED, start=90000.0,
                              end=93600.0),
                active_hours=1.0, hoard_bytes=1999999),
        ],
        metrics={"correlator.ingest.count": 99})


def population() -> PopulationCellResult:
    return PopulationCellResult(
        machine="pop7-000003", activity=0.3125, n_disconnections=41,
        uses_investigators=False, hoard_budget=5242880,
        window_seconds=86400.0, windows=3, referenced_files=57,
        mean_working_set=1398101.3333333333, mean_seer=1747626.6666666667,
        mean_lru=4194304.0, mean_spy=2446677.3333333335,
        mean_coda=3495253.3333333335, disconnections=2,
        failed_disconnections=1, automatic_detections=4,
        median_first_miss_hours=0.4166666666666667,
        metrics={"population.cells": 1.0})


#: The complete SeerParameters field set, as spec_for_parameters
#: writes it: sorted (name, value) pairs.
FULL_OVERRIDES = (
    ("aging_threshold", 5000),
    ("compensation_distance", 100),
    ("delete_delay", 50),
    ("directory_distance_weight", 1.0),
    ("frequent_file_fraction", 0.05),
    ("frequent_file_minimum_accesses", 500),
    ("investigator_weight", 1.0),
    ("kf", 2),
    ("kf_fraction", 0.55),
    ("kn", 4),
    ("kn_fraction", 0.67),
    ("lookback_window", 100),
    ("max_neighbors", 20),
    ("meaningless_min_potential", 20),
    ("meaningless_touch_ratio", 0.5),
    ("minimum_disconnection_seconds", 900.0),
    ("normalize_shared_counts", True),
    ("stale_link_cutoff", 0),
    ("use_geometric_mean", True),
)


def full_spec() -> ShardSpec:
    return ShardSpec("live", "G", 3, 7.0, use_investigators=True,
                     size_seed=5, parameter_overrides=FULL_OVERRIDES,
                     fault_profile="flaky", fault_seed=11)


MISSFREE_BYTES = (
    b'{"machine":"C","metrics":{"correlator.references":1234.0,'
    b'"neighbor.evictions":5},"seed":2,"type":"missfree",'
    b'"use_investigators":true,"window_seconds":86400.0,"windows":['
    b'{"coda_bytes":3145728,"end":86400.0,"index":0,"lru_bytes":9437184,'
    b'"referenced_files":12,"seer_bytes":1310720,"spy_bytes":2097152,'
    b'"start":0.0,"uncoverable_files":1,"working_set_bytes":1048576},'
    b'{"coda_bytes":0,"end":345600.0,"index":3,"lru_bytes":524288,'
    b'"referenced_files":7,"seer_bytes":81920,"spy_bytes":0,'
    b'"start":259200.0,"uncoverable_files":0,"working_set_bytes":73728}]}'
)

LIVE_BYTES = (
    b'{"hoard_budget":2279513,"machine":"F",'
    b'"metrics":{"correlator.ingest.count":99},'
    b'"outcomes":[{"active_hours":0.75,'
    b'"automatic_misses":[{"active_hours_in":0.11,"automatic":true,'
    b'"path":"/home/u/p/util.h","severity":null,"time":4001.5}],'
    b'"fill_interrupted":true,"hoard_bytes":2000000,'
    b'"manual_misses":[{"active_hours_in":0.30000000000000004,'
    b'"automatic":false,"path":"/home/u/p/main.c",'
    b'"severity":"TASK_CHANGED","time":4000.0}],"period":{"end":7200.5,'
    b'"kind":"DISCONNECTED","start":3600.0}},{"active_hours":1.0,'
    b'"automatic_misses":[],"fill_interrupted":false,'
    b'"hoard_bytes":1999999,"manual_misses":[],"period":{"end":93600.0,'
    b'"kind":"DISCONNECTED","start":90000.0}}],"type":"live"}'
)

POPULATION_BYTES = (
    b'{"activity":0.3125,"automatic_detections":4,"disconnections":2,'
    b'"failed_disconnections":1,"hoard_budget":5242880,'
    b'"machine":"pop7-000003","mean_coda":3495253.3333333335,'
    b'"mean_lru":4194304.0,"mean_seer":1747626.6666666667,'
    b'"mean_spy":2446677.3333333335,'
    b'"mean_working_set":1398101.3333333333,'
    b'"median_first_miss_hours":0.4166666666666667,'
    b'"metrics":{"population.cells":1.0},"n_disconnections":41,'
    b'"referenced_files":57,"type":"population",'
    b'"uses_investigators":false,"window_seconds":86400.0,"windows":3}'
)

SPEC_JSON = (
    '{"days": 7.0, "fault_profile": "flaky", "fault_seed": 11,'
    ' "kind": "live", "machine": "G",'
    ' "parameter_overrides": [["aging_threshold", 5000],'
    ' ["compensation_distance", 100], ["delete_delay", 50],'
    ' ["directory_distance_weight", 1.0], ["frequent_file_fraction",'
    ' 0.05], ["frequent_file_minimum_accesses", 500],'
    ' ["investigator_weight", 1.0], ["kf", 2], ["kf_fraction", 0.55],'
    ' ["kn", 4], ["kn_fraction", 0.67], ["lookback_window", 100],'
    ' ["max_neighbors", 20], ["meaningless_min_potential", 20],'
    ' ["meaningless_touch_ratio", 0.5],'
    ' ["minimum_disconnection_seconds", 900.0],'
    ' ["normalize_shared_counts", true], ["stale_link_cutoff", 0],'
    ' ["use_geometric_mean", true]], "size_seed": 5, "trace_seed": 3,'
    ' "use_investigators": true, "window_seconds": null}'
)

LIVE_RESULT_JSON = (
    '{"type": "live", "machine": "F", "hoard_budget": 2279513,'
    ' "outcomes": [{"period": {"kind": "DISCONNECTED", "start": 3600.0,'
    ' "end": 7200.5}, "active_hours": 0.75, "hoard_bytes": 2000000,'
    ' "manual_misses": [{"path": "/home/u/p/main.c", "time": 4000.0,'
    ' "active_hours_in": 0.30000000000000004,'
    ' "severity": "TASK_CHANGED", "automatic": false}],'
    ' "automatic_misses": [{"path": "/home/u/p/util.h", "time": 4001.5,'
    ' "active_hours_in": 0.11, "severity": null, "automatic": true}],'
    ' "fill_interrupted": true}, {"period": {"kind": "DISCONNECTED",'
    ' "start": 90000.0, "end": 93600.0}, "active_hours": 1.0,'
    ' "hoard_bytes": 1999999, "manual_misses": [],'
    ' "automatic_misses": [], "fill_interrupted": false}],'
    ' "metrics": {"correlator.ingest.count": 99}}'
)


class TestPayloadBytes:
    def test_missfree(self):
        assert canonical_bytes(result_to_data(missfree())) == MISSFREE_BYTES

    def test_live(self):
        assert canonical_bytes(result_to_data(live())) == LIVE_BYTES

    def test_population(self):
        assert canonical_bytes(result_to_data(population())) == \
            POPULATION_BYTES

    def test_pinned_bytes_decode_to_the_same_results(self):
        for build, pinned in ((missfree, MISSFREE_BYTES),
                              (live, LIVE_BYTES),
                              (population, POPULATION_BYTES)):
            assert result_from_data(json.loads(pinned)) == build()


class TestStoredRow:
    def test_spec_and_result_columns(self, tmp_path):
        spec = full_spec()
        with SqliteStore(str(tmp_path)) as store:
            store.put(spec, result_to_data(live()), elapsed_seconds=1.5)
        path = str(tmp_path / SqliteStore.FILENAME)
        with contextlib.closing(sqlite3.connect(path)) as conn:
            row = conn.execute(
                "SELECT spec, result FROM checkpoints").fetchone()
        assert row == (SPEC_JSON, LIVE_RESULT_JSON)


class TestOldPayloads:
    """Keys added after a store was written take the field's default."""

    def test_missing_optional_keys_take_defaults(self):
        data = json.loads(LIVE_BYTES)
        del data["outcomes"][0]["fill_interrupted"]
        restored = result_from_data(data)
        assert restored.outcomes[0].fill_interrupted is False
        data = json.loads(MISSFREE_BYTES)
        del data["windows"][0]["spy_bytes"]
        del data["windows"][0]["coda_bytes"]
        restored = result_from_data(data)
        assert restored.windows[0].spy_bytes == 0
        assert restored.windows[0].coda_bytes == 0
        assert restored.windows[0].seer_bytes == 1310720
