"""The deterministic fault injector.

One :class:`FaultInjector` carries a :class:`~repro.faults.profile.
FaultProfile`, a private ``random.Random`` stream, and (optionally) a
shared :class:`repro.observability.Metrics` registry.  Every decision
-- fail this synchronization?  fail this read?  cut the fill after how
many files? -- is a pure function of ``(profile, seed, draw order)``,
so a fault run replays exactly under the same seed, which is what the
kill/resume checkpoint property tests and the CI fault matrix rely on.

Two invariants keep the golden outputs safe:

* an **inert** profile never draws a random number, so attaching a
  ``none`` injector is indistinguishable from attaching nothing;
* the injector only *decides*; the replay performs (or skips) the
  work, so no fault can corrupt state the replay does not already
  model.

Injected faults are counted under the ``faults.`` metrics namespace
(``faults.injected_total`` plus one counter per class); durations are
accumulated in integer milliseconds so they render as plain counters.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.profile import NO_FAULTS, FaultProfile
from repro.observability import Metrics


class FaultInjector:
    """Seeded decision source for all three fault classes."""

    def __init__(self, profile: FaultProfile = NO_FAULTS, seed: int = 0,
                 metrics: Optional[Metrics] = None) -> None:
        import random
        self.profile = profile
        self.seed = seed
        # Seeding on (profile name, seed) keeps two profiles at the
        # same seed from sharing a decision stream.
        self._rng = random.Random(f"faults:{profile.name}:{seed}")
        self.metrics = metrics if metrics is not None else Metrics()

    # ------------------------------------------------------------------
    # decision plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.incr(name, amount)
        self.metrics.incr("faults.injected_total", amount)

    def _chance(self, probability: float, counter: str) -> bool:
        """One biased coin flip; draws nothing when impossible."""
        if probability <= 0.0:
            return False
        if self._rng.random() >= probability:
            return False
        self._count(counter)
        return True

    # ------------------------------------------------------------------
    # (a) surprise disconnection mid-hoard-fill
    # ------------------------------------------------------------------
    def fill_interruption(self, total_files: int) -> Optional[int]:
        """How many files of a *total_files*-file fill complete before
        the user walks away, or ``None`` for an uninterrupted fill."""
        if total_files <= 0:
            return None
        if not self._chance(self.profile.fill_interrupt_probability,
                            "faults.fill_interrupted"):
            return None
        return self._rng.randrange(total_files)

    def note_partial_fill(self, missing_bytes: int) -> None:
        """Record how many bytes the interrupted fill left behind."""
        self.metrics.incr("faults.partial_fill_bytes", missing_bytes)

    # ------------------------------------------------------------------
    # (b) failed synchronization attempts
    # ------------------------------------------------------------------
    def sync_attempt_fails(self) -> bool:
        return self._chance(self.profile.sync_failure_probability,
                            "faults.sync_failures")

    def note_retry(self, backoff_seconds: float) -> None:
        self.metrics.incr("faults.sync_retries")
        self.metrics.incr("faults.backoff_ms",
                          int(round(backoff_seconds * 1000)))

    def note_sync_gave_up(self) -> None:
        self.metrics.incr("faults.sync_gave_up")

    # ------------------------------------------------------------------
    # (c) slow/flaky server reads during hoard fills
    # ------------------------------------------------------------------
    def read_fails(self) -> bool:
        failed = self._chance(self.profile.read_failure_probability,
                              "faults.reads_failed")
        if not failed and self.profile.read_latency_seconds > 0.0:
            # The read succeeded but stalled: simulated latency only,
            # accumulated rather than slept.
            self.metrics.incr(
                "faults.read_latency_ms",
                int(round(self.profile.read_latency_seconds * 1000)))
        return failed
