"""Deterministic fault injection for the live-usage replay.

SEER exists to survive *unplanned* disconnection, so the harness must
be able to express more than the happy path: surprise disconnections
mid-hoard-fill, synchronizations that fail and back off, servers that
stall or fail reads during a fill.  This package provides the seedable
:class:`FaultInjector` the live replay (and the service daemon) draw
their decisions from, the named :class:`FaultProfile` levels the CLI
exposes as ``--fault-profile``, and the bounded-attempts
:class:`RetryPolicy` a profile's backoff settings describe.

See docs/fault-injection.md for the profile catalogue, the
retry/backoff policy and the no-fault golden-equivalence guarantee.
"""

from repro.faults.injector import FaultInjector
from repro.faults.profile import (
    FLAKY,
    HOSTILE,
    LOSSY,
    NO_FAULTS,
    PROFILES,
    FaultProfile,
    RetryPolicy,
    profile_from_name,
)

__all__ = [
    "FLAKY",
    "HOSTILE",
    "LOSSY",
    "NO_FAULTS",
    "PROFILES",
    "FaultInjector",
    "FaultProfile",
    "RetryPolicy",
    "profile_from_name",
]
