"""Per-tenant actor state and the shared online==batch replay core.

One :class:`TenantActor` owns one tenant's entire pipeline: a
:class:`~repro.core.seer.Seer`, the at-least-once dedupe cursor, and
the inbox queue the actor's one daemon drain task serves.  The client's
observer classifies references before they reach the wire (section 2),
so the Seer is fed through its correlator alone: its own observer is
never fed and holds no frequent, critical or non-file designations.
Actors never share mutable state -- tenant isolation is structural,
which is what ``tests/service/test_concurrency.py`` pins.

The functions :func:`replay_references` and :func:`hoard_fill_payload`
are the *entire* decision core, used verbatim by both the live daemon
and the batch replay.  The differential gate (online session ==
batch replay, byte-identical cluster ids and hoard selections) is
therefore a statement about the daemon's plumbing -- framing, batching,
queueing, dedupe, checkpoint/restart -- not about two parallel
implementations of hoarding that could drift apart.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.correlator import ObservedReference
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.core.persistence import dump_correlator, restore_correlator
from repro.core.seer import Seer
from repro.service import protocol

#: Serialization format of one tenant checkpoint payload.
TENANT_STATE_VERSION = 1


# ----------------------------------------------------------------------
# the shared decision core (used online and in batch)
# ----------------------------------------------------------------------
def tenant_seer(parameters: SeerParameters,
                state: Optional[Dict[str, Any]] = None) -> Seer:
    """A tenant's Seer, holding the correlator dump *state* if given."""
    seer = Seer(parameters=parameters, attach=False)
    if state is not None:
        restore_correlator(seer.correlator, state)
    return seer


def replay_references(references: Sequence[ObservedReference],
                      parameters: SeerParameters = DEFAULT_PARAMETERS,
                      seer: Optional[Seer] = None) -> Seer:
    """Feed *references* to a tenant Seer (creating one if needed).

    This is the batch half of the differential gate: the daemon applies
    events through exactly this loop, so an online session and a batch
    replay of the same stream land on identical state.
    """
    if seer is None:
        seer = tenant_seer(parameters)
    handle = seer.correlator.handle
    for reference in references:
        handle(reference)
    return seer


def size_function_from(sizes: Optional[Mapping[str, int]],
                       default_size: int) -> Callable[[str], int]:
    """The size lookup a ``hoard_fill`` request describes.

    The daemon has no filesystem to stat (the client machine does), so
    the request carries an optional ``sizes`` mapping plus a default
    for paths it omits.
    """
    table: Dict[str, int] = dict(sizes) if sizes else {}

    def lookup(path: str) -> int:
        return table.get(path, default_size)

    return lookup


def hoard_fill_payload(seer: Seer, budget: int,
                       sizes: Optional[Mapping[str, int]] = None,
                       default_size: int = 0) -> Dict[str, Any]:
    """Cluster, rank and fill; returns the canonical response payload.

    Both the tenant actor (online) and :func:`batch_hoard_fill` (batch)
    answer through this one function, so the two sides cannot diverge
    except through the state their Seers hold.
    """
    clusters = seer.build_clusters()
    selection = seer.build_hoard(
        budget, size_function_from(sizes, default_size), clusters)
    return protocol.selection_to_data(selection, clusters)


def batch_hoard_fill(references: Sequence[ObservedReference],
                     budget: int,
                     parameters: SeerParameters = DEFAULT_PARAMETERS,
                     sizes: Optional[Mapping[str, int]] = None,
                     default_size: int = 0) -> Dict[str, Any]:
    """The batch replay a single-tenant online session must match."""
    return hoard_fill_payload(replay_references(references, parameters),
                              budget, sizes, default_size)


def restart_batch_seer(seer: Seer) -> Seer:
    """The batch-side equivalent of a daemon kill + checkpoint restore:
    *seer*'s correlator dumped into a fresh Seer, which loses per-process
    streams and pending deletions exactly as a restarted daemon does."""
    return tenant_seer(seer.parameters, dump_correlator(seer.correlator))


# ----------------------------------------------------------------------
# inbox items
# ----------------------------------------------------------------------
@dataclass
class EventBatch:
    """One accepted ``events`` batch, already decoded and deduped."""

    references: List[ObservedReference]


@dataclass
class FillRequest:
    budget: int
    sizes: Optional[Dict[str, int]]
    default_size: int
    future: "asyncio.Future[Dict[str, Any]]"


@dataclass
class StatsRequest:
    future: "asyncio.Future[Dict[str, Any]]"


@dataclass
class CheckpointRequest:
    future: "asyncio.Future[Dict[str, Any]]"


InboxItem = Union[EventBatch, FillRequest, StatsRequest, CheckpointRequest]


# ----------------------------------------------------------------------
# the actor
# ----------------------------------------------------------------------
class TenantActor:
    """One tenant's pipeline plus its inbox.

    The daemon serves an actor's inbox from exactly one drain task,
    one item at a time, so the methods below never run concurrently
    for one tenant and need no internal locking.  The Seer records
    into a *tenant-local* :class:`~repro.observability.Metrics`; the
    daemon absorbs those counters into its service-wide registry on
    demand, which is why ``Metrics.absorb_counters`` had to become
    thread/task-safe.
    """

    def __init__(self, tenant: str,
                 parameters: SeerParameters = DEFAULT_PARAMETERS,
                 queue_bound: int = 1024) -> None:
        self.tenant = tenant
        self.parameters = parameters
        self.seer = tenant_seer(parameters)
        self.inbox: "asyncio.Queue[InboxItem]" = \
            asyncio.Queue(maxsize=queue_bound)
        self.last_seq = 0
        self.events_ingested = 0
        self.duplicates_dropped = 0
        self.fills_answered = 0
        self.busy_seconds = 0.0
        self.restored_from_checkpoint = False

    # -- ingestion -----------------------------------------------------
    def dedupe(self, references: Sequence[ObservedReference]
               ) -> List[ObservedReference]:
        """Drop already-applied deliveries (at-least-once -> once).

        The cursor only advances in :meth:`apply`, so deduping at
        enqueue time is also safe against a redelivery racing a queued
        original: both copies would be enqueued, and the second one is
        dropped again at apply time.
        """
        return [reference for reference in references
                if reference.seq > self.last_seq]

    def apply(self, batch: EventBatch) -> int:
        """Apply one inbox batch to the Seer; returns the count."""
        handle = self.seer.correlator.handle
        applied = 0
        for reference in batch.references:
            if reference.seq <= self.last_seq:
                self.duplicates_dropped += 1
                continue
            handle(reference)
            self.last_seq = reference.seq
            applied += 1
        self.events_ingested += applied
        return applied

    # -- requests ------------------------------------------------------
    def hoard_fill(self, request: FillRequest) -> Dict[str, Any]:
        self.fills_answered += 1
        return hoard_fill_payload(self.seer, request.budget, request.sizes,
                                  request.default_size)

    def stats(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "events_ingested": self.events_ingested,
            "duplicates_dropped": self.duplicates_dropped,
            "fills_answered": self.fills_answered,
            "last_seq": self.last_seq,
            "references_processed": self.seer.correlator.references_processed,
            "known_files": len(self.seer.correlator.known_files()),
            "queue_depth": self.inbox.qsize(),
            "restored_from_checkpoint": self.restored_from_checkpoint,
        }

    # -- checkpointing -------------------------------------------------
    def dump_state(self) -> Dict[str, Any]:
        """JSON-lossless checkpoint payload for the PR 6 state store.

        Matching :mod:`repro.core.persistence`, per-process streams are
        deliberately not saved: client processes do not survive a
        daemon restart, and the batch half of the kill/restart
        differential test performs the same dump/load at the same
        event index so the two sides lose exactly the same state.
        """
        return {
            "format": TENANT_STATE_VERSION,
            "tenant": self.tenant,
            "last_seq": self.last_seq,
            "events_ingested": self.events_ingested,
            "correlator": dump_correlator(self.seer.correlator),
        }

    def load_state(self, data: Dict[str, Any]) -> None:
        if data.get("format") != TENANT_STATE_VERSION:
            raise ValueError(f"unsupported tenant state format: "
                             f"{data.get('format')!r}")
        if data.get("tenant") != self.tenant:
            raise ValueError(f"checkpoint for tenant {data.get('tenant')!r} "
                             f"offered to tenant {self.tenant!r}")
        # A fresh Seer: in-memory counters do not survive a restart,
        # by the same reasoning as process streams.
        self.seer = tenant_seer(self.parameters, data["correlator"])
        self.last_seq = int(data["last_seq"])
        self.events_ingested = int(data["events_ingested"])
        self.restored_from_checkpoint = True
