"""Lossless JSON round-trips for checkpointed simulation results, and
the codec's refusal to build for a field type JSON cannot round-trip."""

import dataclasses
import enum
import json
import typing
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import pytest

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
    ShardResult,
    codec_for,
    comparable_data,
    result_from_data,
    result_to_data,
)
from repro.workload.sessions import Period, PeriodKind


def make_missfree() -> MissFreeResult:
    return MissFreeResult(
        machine="C", window_seconds=86400.0, use_investigators=True, seed=2,
        windows=[
            WindowResult(index=0, start=0.0, end=86400.0,
                         referenced_files=12, working_set_bytes=1048576,
                         seer_bytes=1310720, lru_bytes=9437184,
                         uncoverable_files=1, spy_bytes=2097152),
            WindowResult(index=3, start=259200.0, end=345600.0,
                         referenced_files=7, working_set_bytes=73728,
                         seer_bytes=81920, lru_bytes=524288,
                         uncoverable_files=0),
        ],
        metrics={"correlator.references": 1234.0, "neighbor.evictions": 5})


def make_live() -> LiveResult:
    period = Period(PeriodKind.DISCONNECTED, start=3600.0, end=7200.5)
    return LiveResult(
        machine="F", hoard_budget=2279513,
        outcomes=[DisconnectionOutcome(
            period=period, active_hours=0.75, hoard_bytes=2000000,
            manual_misses=[RecordedMiss(
                path="/home/u/p/main.c", time=4000.0, active_hours_in=0.1,
                severity=MissSeverity.TASK_CHANGED, automatic=False)],
            automatic_misses=[RecordedMiss(
                path="/home/u/p/util.h", time=4001.5, active_hours_in=0.11,
                severity=None, automatic=True)])],
        metrics={"correlator.ingest.count": 99})


class TestRoundTrip:
    def test_missfree_exact(self):
        original = make_missfree()
        restored = result_from_data(result_to_data(original))
        assert restored == original

    def test_live_exact(self):
        original = make_live()
        restored = result_from_data(result_to_data(original))
        assert restored == original

    def test_survives_json_text(self):
        """The checkpoint file path: dict -> JSON text -> dict."""
        for original in (make_missfree(), make_live()):
            text = json.dumps(result_to_data(original))
            assert result_from_data(json.loads(text)) == original

    def test_float_fidelity_through_json(self):
        result = make_live()
        result.outcomes[0].manual_misses[0].active_hours_in = 0.1 + 0.2
        text = json.dumps(result_to_data(result))
        restored = result_from_data(json.loads(text))
        assert restored.outcomes[0].manual_misses[0].active_hours_in \
            == 0.1 + 0.2

    def test_empty_results(self):
        empty = MissFreeResult("E", 86400.0, False, 0)
        assert result_from_data(result_to_data(empty)) == empty
        quiet = LiveResult("E", 100)
        assert result_from_data(result_to_data(quiet)) == quiet


class TestDispatch:
    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            result_from_data({"type": "mystery"})

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            result_to_data(object())

    def test_a_bare_score_is_no_shard_result(self):
        # A sweep scores its miss-free cells itself: no cell returns a
        # float, and the "objective" tag is unknown.
        assert typing.get_args(ShardResult) == \
            (MissFreeResult, LiveResult, PopulationCellResult)
        with pytest.raises(TypeError):
            result_to_data(1.5)
        with pytest.raises(ValueError, match="objective"):
            result_from_data({"type": "objective", "score": 1.5})

    def test_comparable_data_strips_metrics(self):
        data = comparable_data(make_missfree())
        assert "metrics" not in data
        assert data["machine"] == "C"


# Scratch payload classes: one lossless graph, and one class per way a
# field can fail to round-trip through JSON.
class Colour(enum.Enum):
    RED = "red"
    BLUE = "blue"


@dataclass(frozen=True)
class Leaf:
    name: str
    weight: float


@dataclass(frozen=True)
class Root:
    seed: int
    label: Optional[str]
    leaves: Tuple[Leaf, ...]
    totals: Dict[str, int]


@dataclass(frozen=True)
class Painted:
    colour: Colour
    shades: Tuple[Colour, ...]


@dataclass(frozen=True)
class Scalars:
    count: int
    weight: float
    name: str
    flag: bool
    label: Optional[str]


SCALARS = {"count": 1, "weight": 0.5, "name": "n", "flag": True,
           "label": "l"}


@dataclass(frozen=True)
class HoldsObject:
    # The hazard the codec exists for: `object` says nothing about
    # how the value would come back.
    value: object


@dataclass(frozen=True)
class HoldsSet:
    members: Set[str]


@dataclass(frozen=True)
class HoldsIntKeys:
    by_id: Dict[int, str]


@dataclass(frozen=True)
class HoldsNestedSet:
    inner: HoldsSet


class TestCodec:
    @pytest.mark.parametrize("root", [ShardSpec, MissFreeResult,
                                      LiveResult, PopulationCellResult],
                             ids=lambda cls: cls.__name__)
    def test_builds_for_every_checkpoint_root(self, root):
        codec = codec_for(root)
        assert [name for name, _ in codec.fields] == \
            [field.name for field in dataclasses.fields(root)]

    def test_lossless_graph_round_trips(self):
        root = Root(seed=3, label=None,
                    leaves=(Leaf("a", 0.1 + 0.2), Leaf("b", 2.0)),
                    totals={"x": 1})
        data = json.loads(json.dumps(codec_for(Root).encode(root)))
        assert data["leaves"][1] == {"name": "b", "weight": 2.0}
        assert codec_for(Root).decode(data) == root

    def test_enum_field_round_trips_by_name(self):
        painted = Painted(colour=Colour.RED,
                          shades=(Colour.BLUE, Colour.RED))
        data = json.loads(json.dumps(codec_for(Painted).encode(painted)))
        assert data == {"colour": "RED", "shades": ["BLUE", "RED"]}
        assert codec_for(Painted).decode(data) == painted

    @pytest.mark.parametrize("field, value", [
        ("count", True), ("count", 1.5), ("count", "1"), ("count", None),
        ("weight", True), ("weight", "0.5"), ("weight", None),
        ("name", 3), ("name", None), ("flag", 1), ("flag", "true"),
        ("label", 3),
    ])
    def test_scalar_field_of_another_json_type_is_refused(self, field,
                                                          value):
        with pytest.raises(ValueError, match=f"Scalars.{field} has the "
                           f"wrong type"):
            codec_for(Scalars).decode({**SCALARS, field: value})

    def test_scalar_field_takes_its_own_json_types(self):
        # An int is a float's JSON form too; None only where Optional.
        decoded = codec_for(Scalars).decode(
            {**SCALARS, "weight": 2, "label": None})
        assert decoded == Scalars(count=1, weight=2, name="n", flag=True,
                                  label=None)

    @pytest.mark.parametrize("cls, field, detail", [
        (HoldsObject, "HoldsObject.value", "object"),
        (HoldsSet, "HoldsSet.members", "Set"),
        (HoldsIntKeys, "HoldsIntKeys.by_id", "Dict"),
        (HoldsNestedSet, "HoldsSet.members", "Set"),
    ], ids=["object", "set", "int-dict-key", "nested-set"])
    def test_field_json_cannot_round_trip_is_rejected(self, cls, field,
                                                      detail):
        with pytest.raises(TypeError, match=field) as excinfo:
            codec_for(cls)
        assert detail in str(excinfo.value)
