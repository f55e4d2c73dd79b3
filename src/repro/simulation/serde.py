"""Exact JSON round-trips for simulation results.

The parallel experiment runner (:mod:`repro.simulation.runner`)
checkpoints every completed grid cell to disk and reloads it on
``--resume``; for a resumed sweep to be byte-identical to an
uninterrupted one, serialization must be *lossless*.  Everything here
is therefore plain JSON of ints, floats and strings: Python's ``json``
module round-trips both exactly (floats via shortest-repr), enums are
stored by name, and nested dataclasses become dictionaries.

One codec serves every payload.  :func:`codec_for` derives it from a
dataclass's fields and type hints the first time the class is seen,
so a field is serialized because it exists -- there is no per-class
list of fields to forget.  An annotation that would not survive JSON
(``object``, a set, a dict keyed by anything but ``str``) raises
``TypeError`` naming the class and the field when that codec is
built, which is the one place lossless round-tripping is enforced.
Decoding is the one place a payload's scalar fields are checked: a
value whose JSON type its annotation does not take, or a float that
is not finite (``json`` reads ``NaN`` and ``Infinity``), raises
``ValueError`` naming the class and the field.

``result_to_data``/``result_from_data`` dispatch on a ``"type"`` tag so
the runner can checkpoint heterogeneous grids (miss-free cells, live
cells and reduced population cells) into one results directory.

Persistence itself lives one layer up, in
:mod:`repro.simulation.store`: this module only defines the payload
dictionaries and their canonical byte form
(:func:`canonical_bytes`/:func:`payload_fingerprint`), which the
checkpoint store uses to detect corrupt or torn checkpoints.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import typing
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.simulation.live import LiveResult
from repro.simulation.missfree import MissFreeResult
from repro.simulation.population import PopulationCellResult

#: Anything the runner knows how to checkpoint.
ShardResult = Union[MissFreeResult, LiveResult, PopulationCellResult]

_Convert = Callable[[Any], Any]
#: (encode, decode) for one annotation; None when the value is already
#: its own JSON form and passes through untouched.
_Codec = Optional[Tuple[_Convert, _Convert]]

#: The scalar annotations, each with the JSON types it takes on decode.
#: A bool is an int to ``isinstance``, so it is refused where bool is
#: not listed.
_SCALARS: Dict[Any, Tuple[type, ...]] = {
    int: (int,), float: (int, float), str: (str,), bool: (bool,),
    type(None): (type(None),)}

#: The ``"type"`` tag of each dataclass result.
_TAGS: Dict[type, str] = {MissFreeResult: "missfree", LiveResult: "live",
                          PopulationCellResult: "population"}
_TAGGED: Dict[str, type] = {tag: cls for cls, tag in _TAGS.items()}


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
# the codec
# ----------------------------------------------------------------------
def _same(value: Any) -> Any:
    return value


def _elementwise(element: _Codec, rebuild: Callable[[Any], Any]
                 ) -> _Codec:
    """Codec for a homogeneous list (``rebuild=list``) or tuple."""
    if element is None:
        return None if rebuild is list else (list, tuple)
    encode, decode = element
    return ((lambda value: [encode(item) for item in value]),
            (lambda data: rebuild(decode(item) for item in data)))


def _codec(hint: Any, where: str) -> _Codec:
    """How values annotated *hint* travel through JSON."""
    if hint in _SCALARS:
        return None
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        members = hint
        return (lambda value: value.name), (lambda name: members[name])
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        nested = codec_for(hint)
        return nested.encode, nested.decode
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    present = [arg for arg in args if arg is not type(None)]
    if origin is Union and all(arg in _SCALARS for arg in present):
        return None
    if origin is Union and len(present) == 1:          # Optional[X]
        inner = _codec(present[0], where)
        if inner is None:
            return None
        encode, decode = inner
        return ((lambda value: None if value is None else encode(value)),
                (lambda data: None if data is None else decode(data)))
    if origin is list and len(args) == 1:
        return _elementwise(_codec(args[0], where), list)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _elementwise(_codec(args[0], where), tuple)
    if origin is tuple and args:                      # Tuple[X, Y]
        parts = [_codec(arg, where) or (_same, _same) for arg in args]
        return ((lambda value: [part[0](item)
                                for part, item in zip(parts, value)]),
                (lambda data: tuple(part[1](item)
                                    for part, item in zip(parts, data))))
    if origin is dict and len(args) == 2 and args[0] is str:
        value_codec = _codec(args[1], where)
        if value_codec is None:
            return None
        encode, decode = value_codec
        return ((lambda value: {k: encode(v) for k, v in value.items()}),
                (lambda data: {k: decode(v) for k, v in data.items()}))
    raise TypeError(
        f"{where}: {hint!r} does not round-trip through JSON (use int, "
        f"float, str, bool, None, an enum, a dataclass, or a List, "
        f"Tuple[X, ...], Optional or str-keyed Dict of those)")


def _takes(hint: Any) -> Optional[Tuple[type, ...]]:
    """The JSON types a field annotated *hint* takes, or None when the
    field is not a scalar (nor an Optional or Union of scalars)."""
    members = typing.get_args(hint) if typing.get_origin(hint) is Union \
        else (hint,)
    if not all(member in _SCALARS for member in members):
        return None
    return tuple(kind for member in members for kind in _SCALARS[member])


class DataclassCodec:
    """Encode/decode one dataclass, field by field, in field order."""

    def __init__(self, cls: Any) -> None:
        hints = typing.get_type_hints(cls)
        self.cls: type = cls
        self.fields: List[Tuple[str, _Codec]] = [
            (f.name, _codec(hints[f.name], f"{cls.__qualname__}.{f.name}"))
            for f in dataclasses.fields(cls)]
        #: (name, JSON types taken) of each scalar field.
        self.scalars: List[Tuple[str, Tuple[type, ...]]] = []
        for f in dataclasses.fields(cls):
            takes = _takes(hints[f.name])
            if takes is not None:
                self.scalars.append((f.name, takes))

    def encode(self, value: Any) -> Dict[str, Any]:
        return {name: getattr(value, name) if codec is None
                else codec[0](getattr(value, name))
                for name, codec in self.fields}

    def decode(self, data: Dict[str, Any]) -> Any:
        for name, takes in self.scalars:
            if name not in data:
                continue
            value = data[name]
            if not isinstance(value, takes) or (
                    isinstance(value, bool) and bool not in takes):
                raise ValueError(
                    f"{self.cls.__qualname__}.{name} has the wrong type "
                    f"({type(value).__name__})")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(
                    f"{self.cls.__qualname__}.{name} is not finite ({value})")
        # A key an older payload lacks takes the field's default.
        return self.cls(**{name: data[name] if codec is None
                           else codec[1](data[name])
                           for name, codec in self.fields if name in data})


@functools.lru_cache(maxsize=None)
def codec_for(cls: type) -> DataclassCodec:
    """The (cached) codec of dataclass *cls*; raises ``TypeError`` if a
    field anywhere below it cannot round-trip through JSON."""
    return DataclassCodec(cls)


def to_data(value: Any) -> Dict[str, Any]:
    """JSON-safe dictionary form of a dataclass instance."""
    return codec_for(type(value)).encode(value)


# ----------------------------------------------------------------------
# tagged results
# ----------------------------------------------------------------------
def result_to_data(result: ShardResult) -> Dict:
    """Serialize any shard result to a JSON-safe tagged dictionary."""
    tag = _TAGS.get(type(result))
    if tag is None:
        raise TypeError(f"cannot serialize shard result: {type(result)!r}")
    return {"type": tag, **to_data(result)}


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
    cls = _TAGGED.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown shard result type: {kind!r}")
    result: ShardResult = codec_for(cls).decode(data)
    return result
