"""The hoard-daemon wire protocol: newline-delimited JSON, version 1.

One message per line, UTF-8, compact JSON with no embedded newlines.
Requests carry a ``type``, usually a ``tenant``, and an optional
client-chosen ``id`` that the response echoes, so a client can pipeline
requests and still correlate answers.  The full message catalogue,
framing and versioning rules live in ``docs/service.md``; this module
is the single source of truth for encoding, decoding and validation,
shared by the daemon and the client so the two cannot drift.

Trace references travel in a compact array form --
``[seq, time, pid, action, path, path2, ppid]`` -- matching the fields
of :class:`~repro.core.correlator.ObservedReference`.  ``seq`` is the
tenant-monotonic delivery sequence the at-least-once dedupe keys on
(redelivered events with ``seq <=`` the last applied one are dropped),
so a client that resends an unacknowledged batch after a reconnect
converges to exactly-once application.

Hoard responses are rendered through :func:`selection_to_data` /
:func:`clusters_to_data` into canonical, JSON-lossless payloads.  The
differential gate compares these bytes between an online session and a
batch replay, which is why the daemon and the batch helper in
:mod:`repro.service.tenant` both answer through these functions.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.core.clustering import ClusterSet
from repro.core.correlator import Action, ObservedReference
from repro.core.hoard import HoardSelection

#: Bump when a message changes shape.  The daemon answers requests
#: carrying another version with an ``unsupported-version`` error and
#: keeps the connection open, so a mixed fleet fails loudly per
#: request instead of corrupting tenant state.
PROTOCOL_VERSION = 1

#: Upper bound on one framed line; a longer line is a protocol error.
#: Generous enough for a several-thousand-event batch, small enough
#: that a stuck or hostile client cannot balloon daemon memory.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: Tenant ids key actor state and checkpoint shard ids (filesystem
#: paths under the json store backend), so they are restricted to a
#: filesystem-safe alphabet.
_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Request types the daemon understands.
REQUEST_TYPES = ("hello", "events", "hoard_fill", "stats", "checkpoint",
                 "ping")


class ProtocolError(ValueError):
    """A malformed or unacceptable message.

    ``code`` is a stable machine-readable token (documented in
    ``docs/service.md``); the string form carries the human detail.
    """

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON plus the terminating newline."""
    return json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode("utf-8") + b"\n"


def decode_line(raw: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dictionary."""
    if len(raw) > MAX_LINE_BYTES:
        raise ProtocolError("oversized", f"frame of {len(raw)} bytes "
                            f"exceeds the {MAX_LINE_BYTES}-byte limit")
    try:
        message = json.loads(raw)
    except ValueError as error:
        raise ProtocolError("bad-json", f"undecodable frame: {error}") \
            from None
    if not isinstance(message, dict):
        raise ProtocolError("bad-message", "frame is not a JSON object")
    return message


# ----------------------------------------------------------------------
# request validation
# ----------------------------------------------------------------------
def validate_tenant(tenant: object) -> str:
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise ProtocolError(
            "bad-tenant",
            f"tenant id {tenant!r} must match {_TENANT_RE.pattern}")
    return tenant


def validate_request(message: Dict[str, Any]) -> str:
    """Check type and version; returns the request type."""
    kind = message.get("type")
    if kind not in REQUEST_TYPES:
        raise ProtocolError("unknown-type",
                            f"unknown request type {kind!r} "
                            f"(known: {', '.join(REQUEST_TYPES)})")
    version = message.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError("unsupported-version",
                            f"protocol version {version!r} is not "
                            f"supported (this daemon speaks "
                            f"{PROTOCOL_VERSION})")
    return str(kind)


# ----------------------------------------------------------------------
# trace references on the wire
# ----------------------------------------------------------------------
def reference_to_wire(reference: ObservedReference) -> List[Any]:
    """Compact array form of one classified reference."""
    return [reference.seq, reference.time, reference.pid,
            reference.action.value, reference.path, reference.path2,
            reference.ppid]


def reference_from_wire(data: object) -> ObservedReference:
    """Exact inverse of :func:`reference_to_wire`, validating shape."""
    if not isinstance(data, (list, tuple)) or len(data) != 7:
        raise ProtocolError("bad-event",
                            f"event must be a 7-element array, got {data!r}")
    seq, time, pid, action, path, path2, ppid = data
    # bool is an int subclass, so an exact type test keeps True out.
    if type(seq) is not int or type(pid) is not int or \
            type(ppid) is not int:
        raise ProtocolError("bad-event",
                            f"seq/pid/ppid must be integers in {data!r}")
    # NaN and the infinities, which json.loads accepts, and integers
    # too large for a float all fail the range test.
    if not isinstance(time, (int, float)) or isinstance(time, bool) or \
            not -sys.float_info.max <= time <= sys.float_info.max:
        raise ProtocolError("bad-event",
                            f"time must be a finite number in {data!r}")
    if not isinstance(path, str) or not isinstance(path2, str):
        raise ProtocolError("bad-event", f"paths must be strings in {data!r}")
    try:
        parsed = Action(action)
    except ValueError:
        raise ProtocolError("bad-event",
                            f"unknown action {action!r}") from None
    return ObservedReference(seq=seq, time=float(time), pid=pid,
                             action=parsed, path=path, path2=path2,
                             ppid=ppid)


def references_from_wire(data: object) -> List[ObservedReference]:
    if not isinstance(data, list):
        raise ProtocolError("bad-event", "'records' must be an array")
    return [reference_from_wire(item) for item in data]


def references_to_wire(
        references: Sequence[ObservedReference]) -> List[List[Any]]:
    return [reference_to_wire(reference) for reference in references]


# ----------------------------------------------------------------------
# canonical hoard / cluster payloads (the differential-gate surface)
# ----------------------------------------------------------------------
def clusters_to_data(clusters: ClusterSet) -> Dict[str, Any]:
    """Canonical JSON-lossless form of a cluster set.

    Cluster ids keep their construction order (the byte-identity gate
    covers the ids themselves, not just the member sets); members are
    sorted so two structurally equal sets serialize identically.
    """
    return {
        "cluster_ids": list(clusters.cluster_ids()),
        "members": {str(cluster_id): sorted(clusters.members(cluster_id))
                    for cluster_id in clusters.cluster_ids()},
    }


def selection_to_data(selection: HoardSelection,
                      clusters: Optional[ClusterSet] = None) -> Dict[str, Any]:
    """Canonical JSON-lossless form of one hoard-filling decision."""
    data: Dict[str, Any] = {
        "files": sorted(selection.files),
        "total_bytes": selection.total_bytes,
        "budget": selection.budget,
        "always_hoarded": sorted(selection.always_hoarded),
        "clusters_included": list(selection.clusters_included),
        "clusters_skipped": list(selection.clusters_skipped),
    }
    if clusters is not None:
        data["clusters"] = clusters_to_data(clusters)
    return data


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
def response(kind: str, request: Dict[str, Any],
             **fields: Any) -> Dict[str, Any]:
    """A response frame of *kind*, echoing the request's ``id``."""
    message: Dict[str, Any] = {"type": kind, "v": PROTOCOL_VERSION}
    if "id" in request:
        message["id"] = request["id"]
    message.update(fields)
    return message


def error_response(request: Dict[str, Any],
                   error: ProtocolError) -> Dict[str, Any]:
    return response("error", request, code=error.code, error=error.detail)
