"""Wire-protocol unit tests: framing, validation, round-trips."""

import json

import pytest

from repro.core.correlator import Action, ObservedReference
from repro.service import protocol


def test_encode_is_one_compact_line():
    frame = protocol.encode({"type": "ping", "v": 1})
    assert frame.endswith(b"\n")
    assert frame.count(b"\n") == 1
    assert b" " not in frame


def test_decode_round_trip():
    message = {"type": "events", "tenant": "m1", "records": [], "v": 1}
    assert protocol.decode_line(protocol.encode(message)) == message


def test_decode_rejects_garbage_and_non_objects():
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.decode_line(b"{not json\n")
    assert excinfo.value.code == "bad-json"
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.decode_line(b"[1,2,3]\n")
    assert excinfo.value.code == "bad-message"


def test_decode_rejects_oversized_frames():
    raw = b"x" * (protocol.MAX_LINE_BYTES + 1)
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.decode_line(raw)
    assert excinfo.value.code == "oversized"


def test_validate_request_checks_type_and_version():
    assert protocol.validate_request({"type": "ping"}) == "ping"
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.validate_request({"type": "launch_missiles"})
    assert excinfo.value.code == "unknown-type"
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.validate_request({"type": "ping", "v": 99})
    assert excinfo.value.code == "unsupported-version"


@pytest.mark.parametrize("tenant", ["m1", "machine-A", "a.b_c-9", "x" * 64])
def test_valid_tenants(tenant):
    assert protocol.validate_tenant(tenant) == tenant


@pytest.mark.parametrize("tenant", ["", "a/b", "a b", "x" * 65, None, 7,
                                    "../escape"])
def test_invalid_tenants(tenant):
    with pytest.raises(protocol.ProtocolError):
        protocol.validate_tenant(tenant)


def test_reference_wire_round_trip():
    reference = ObservedReference(seq=12, time=34.5, pid=6,
                                  action=Action.RENAME, path="/a",
                                  path2="/b", ppid=2)
    wire = protocol.reference_to_wire(reference)
    assert json.loads(json.dumps(wire)) == wire   # JSON-lossless
    assert protocol.reference_from_wire(wire) == reference


@pytest.mark.parametrize("wire", [
    "not-a-list",
    [1, 2, 3],                                       # wrong arity
    ["x", 1.0, 1, "open", "/a", "", 0],              # seq not int
    [1, "t", 1, "open", "/a", "", 0],                # time not number
    [1, 1.0, 1, "meow", "/a", "", 0],                # unknown action
    [1, 1.0, 1, "open", 7, "", 0],                   # path not str
    [True, 1.0, 1, "open", "/a", "", 0],             # seq a bool
    [1, 1.0, True, "open", "/a", "", 0],             # pid a bool
    [1, 1.0, 1, "open", "/a", "", True],             # ppid a bool
    [1, float("nan"), 1, "open", "/a", "", 0],       # time NaN
    [1, float("inf"), 1, "open", "/a", "", 0],       # time infinite
    [1, 10 ** 400, 1, "open", "/a", "", 0],          # time past float range
])
def test_reference_from_wire_rejects_malformed(wire):
    with pytest.raises(protocol.ProtocolError) as excinfo:
        protocol.reference_from_wire(wire)
    assert excinfo.value.code == "bad-event"


def test_response_echoes_request_id():
    reply = protocol.response("ok", {"id": 41, "type": "ping"}, extra=1)
    assert reply == {"type": "ok", "v": protocol.PROTOCOL_VERSION,
                     "id": 41, "extra": 1}
    assert "id" not in protocol.response("ok", {"type": "ping"})


def test_error_response_carries_code_and_detail():
    error = protocol.ProtocolError("bad-tenant", "nope")
    reply = protocol.error_response({"id": 3}, error)
    assert reply["type"] == "error"
    assert reply["code"] == "bad-tenant"
    assert reply["error"] == "nope"
    assert reply["id"] == 3
