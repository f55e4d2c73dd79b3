"""Fault profiles: named descriptions of adversity.

A :class:`FaultProfile` is a frozen bag of probabilities and policy
constants covering the three fault classes the harness injects into
the live-usage replay (docs/fault-injection.md):

(a) **surprise disconnection mid-hoard-fill** -- the user walks away
    before the fill completes (paper section 2's "disconnection
    imminent" notification never arrives in time);
(b) **interrupted synchronization** -- reintegration attempts fail
    and are retried with exponential backoff under the
    bounded-attempts :class:`RetryPolicy`;
(c) **slow/flaky server reads** -- reads issued during the hoard
    fill fail or stall.

Profiles are identified by name, so a CLI flag, a checkpoint's shard
spec and a CI matrix can all refer to the same adversity level.  The
``none`` profile is *inert*: every probability is zero, no random
numbers are ever drawn, and every code path behaves byte-identically
to a build without fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class FaultProfile:
    """Probabilities and policy constants for one adversity level."""

    name: str
    # (a) surprise disconnection during the hoard fill
    fill_interrupt_probability: float = 0.0
    # (b) failed synchronization attempts + retry/backoff policy
    sync_failure_probability: float = 0.0
    max_sync_attempts: int = 3
    backoff_initial_seconds: float = 1.0
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 60.0
    # (c) flaky/slow server reads during hoard fills
    read_failure_probability: float = 0.0
    read_latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        for name in ("fill_interrupt_probability", "sync_failure_probability",
                     "read_failure_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.max_sync_attempts < 1:
            raise ValueError("max_sync_attempts must be >= 1")

    @property
    def inert(self) -> bool:
        """True when no fault can ever fire (the golden-path profile)."""
        return not any((
            self.fill_interrupt_probability,
            self.sync_failure_probability,
            self.read_failure_probability,
        ))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-attempts policy for interrupted synchronizations.

    Attempt *n* (1-based) that fails is retried after
    ``initial_backoff_seconds * backoff_multiplier ** (n - 1)`` seconds,
    capped at ``max_backoff_seconds``; after ``max_attempts`` failures
    the synchronization gives up.  The live replay accumulates backoff
    time without sleeping; the service client sleeps it for real.
    """

    max_attempts: int = 3
    initial_backoff_seconds: float = 1.0
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 60.0

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait after failed (1-based) *attempt*."""
        pause = self.initial_backoff_seconds * \
            self.backoff_multiplier ** (attempt - 1)
        return min(pause, self.max_backoff_seconds)

    @classmethod
    def from_profile(cls, profile: FaultProfile) -> "RetryPolicy":
        """Build the policy a :class:`FaultProfile` names."""
        return cls(max_attempts=profile.max_sync_attempts,
                   initial_backoff_seconds=profile.backoff_initial_seconds,
                   backoff_multiplier=profile.backoff_multiplier,
                   max_backoff_seconds=profile.backoff_max_seconds)


#: The inert profile: behaviour is byte-identical to no injection.
NO_FAULTS = FaultProfile(name="none")

#: A lossy, partition-prone network: synchronizations fail often
#: enough to exercise the retry/backoff path.
LOSSY = FaultProfile(
    name="lossy",
    sync_failure_probability=0.25,
)

#: A flaky server and an impatient user: reads stall or fail during
#: the hoard fill, and the laptop sometimes leaves mid-fill.
FLAKY = FaultProfile(
    name="flaky",
    fill_interrupt_probability=0.30,
    sync_failure_probability=0.10,
    read_failure_probability=0.10,
    read_latency_seconds=0.5,
)

#: Both at once, turned up: the stress profile.
HOSTILE = FaultProfile(
    name="hostile",
    fill_interrupt_probability=0.50,
    sync_failure_probability=0.40,
    max_sync_attempts=4,
    read_failure_probability=0.25,
    read_latency_seconds=1.5,
)

PROFILES: Dict[str, FaultProfile] = {
    profile.name: profile
    for profile in (NO_FAULTS, LOSSY, FLAKY, HOSTILE)
}


def profile_from_name(name: str) -> FaultProfile:
    """Look up a named profile (CLI ``--fault-profile`` values)."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown fault profile {name!r} (known: {known})") \
            from None
