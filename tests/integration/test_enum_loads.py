"""No per-record function loads an enum member through its class.

On CPython 3.11 ``EnumType`` defines ``__getattr__``, so every
``Operation.STAT`` in a function body goes through the slow attribute
hook, about 0.1 us a load; the per-record path names members through
module-level aliases instead (``docs/hot-path.md``, "The per-record
tax").  No benchmark gate would notice the loads coming back, since
the trajectory floors sit far below measured throughput, so this test
reads the bytecode: a ``LOAD_GLOBAL`` of one of the enum classes
followed by a ``LOAD_ATTR`` is such a load.
"""

import dis
import enum

import pytest

from repro.core.correlator import Correlator
from repro.observer.filters import MeaninglessDetector
from repro.observer.observer import Observer
from repro.simulation import live, missfree
from repro.tracing.events import Operation

ENUMS = {"Operation", "Action", "FileKind", "MeaninglessStrategy"}


def nested(function, name):
    """The code object of the function *name* defined in *function*."""
    for const in function.__code__.co_consts:
        if getattr(const, "co_name", None) == name:
            return const
    raise LookupError(f"{function.__qualname__} defines no {name}")


#: Every function that runs once per trace record or per reference.
PER_RECORD = {
    "Observer.handle_record": Observer.handle_record,
    "Observer._passes_filters": Observer._passes_filters,
    "Observer._forward": Observer._forward,
    "Observer._handle_open": Observer._handle_open,
    "Observer._handle_close": Observer._handle_close,
    "Observer._handle_exec": Observer._handle_exec,
    "Correlator.handle": Correlator.handle,
    "MeaninglessDetector.is_meaningless": MeaninglessDetector.is_meaningless,
    "missfree._is_relevant_reference": missfree._is_relevant_reference,
    "missfree.mark_relevance": missfree.mark_relevance,
    "missfree._feed_spy": missfree._feed_spy,
    "live._miss_check.check": nested(live._miss_check, "check"),
}


def enum_member_loads(code):
    """``Class.MEMBER`` for each enum member *code* loads through its
    class."""
    instructions = list(dis.get_instructions(code))
    return [f"{first.argval}.{second.argval}"
            for first, second in zip(instructions, instructions[1:])
            if first.opname == "LOAD_GLOBAL" and first.argval in ENUMS
            and second.opname == "LOAD_ATTR"]


def test_the_scan_finds_a_member_load():
    def sample(op):
        return op is Operation.STAT or op is enum.Enum

    assert enum_member_loads(sample) == ["Operation.STAT"]


@pytest.mark.parametrize("name", sorted(PER_RECORD))
def test_no_enum_member_loaded_through_its_class(name):
    assert enum_member_loads(PER_RECORD[name]) == []
