"""SEER as a service: the long-lived multi-tenant hoard daemon.

Everything before this package replayed traces in batch.  Here the
same pipeline runs *online*: a :class:`~repro.service.daemon.HoardDaemon`
accepts classified trace references from many concurrent clients over
a newline-delimited-JSON protocol (``docs/service.md``), maintains one
:class:`~repro.core.seer.Seer` per tenant behind an actor-per-tenant
model with one drain task per tenant, and answers ``hoard_fill`` and
``stats`` requests against the live state.

The split follows the paper's own architecture: SEER's observer is the
kernel-resident component on each client machine, while the correlator
runs as a user-level daemon (section 2).  This package moves that
daemon off-machine: clients classify their own references (an
:class:`~repro.observer.observer.Observer` fed by the local kernel)
and stream them to a shared correlator service.

The correctness anchor is differential: an online session replaying a
trace must produce cluster ids and hoard selections *byte-identical*
to a batch replay of the same reference stream through the PR 7
:class:`~repro.core.arena.ColumnarEngine`
(``tests/service/test_differential.py``).
"""

from repro.service.client import ServiceClient
from repro.service.daemon import HoardDaemon, run_service
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    reference_from_wire,
    reference_to_wire,
)
from repro.service.tenant import (
    TenantActor,
    hoard_fill_payload,
    replay_references,
)

__all__ = [
    "PROTOCOL_VERSION",
    "HoardDaemon",
    "ProtocolError",
    "ServiceClient",
    "TenantActor",
    "hoard_fill_payload",
    "reference_from_wire",
    "reference_to_wire",
    "replay_references",
    "run_service",
]
