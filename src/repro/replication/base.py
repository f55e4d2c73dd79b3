"""The replication-system interface SEER is written against.

SEER assumes very little of the underlying system (section 2), which is
what makes it portable.  The interface below captures exactly what the
paper uses:

* ``set_hoard`` -- load the chosen files onto the local disk;
* ``access``   -- the outcome of a file access: served locally, served
  remotely (FICUS-style), a detectable hoard miss, or indistinguishable
  from a nonexistent file (section 4.4's hard case);
* connectivity transitions and reconnection synchronization with
  conflict reporting (section 2's "managing conflicts [17]").

Because SEER's whole point is surviving *unplanned* disconnection, the
interface also speaks fault injection (docs/fault-injection.md): a
:class:`~repro.faults.FaultInjector` attached via :meth:`
ReplicationSystem.inject_faults` can interrupt a hoard fill partway
(the user walks away mid-fill), fail server reads during the fill, and
fail ``synchronize()`` attempts -- which are then retried with
exponential backoff under the bounded-attempts :class:`RetryPolicy`.
Without an injector every path below behaves exactly as it always did.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.fs import FileSystem, FileSystemError


class AccessOutcome(enum.Enum):
    LOCAL = "local"            # served from the hoard
    REMOTE = "remote"          # served by remote access while connected
    MISS = "miss"              # detectable hoard miss (file known to exist)
    NOT_FOUND = "not_found"    # failure indistinguishable from ENOENT


@dataclass(frozen=True)
class AccessResult:
    path: str
    outcome: AccessOutcome

    @property
    def ok(self) -> bool:
        return self.outcome in (AccessOutcome.LOCAL, AccessOutcome.REMOTE)


@dataclass
class ConflictRecord:
    """One update/update conflict discovered at synchronization."""

    path: str
    winner: str          # which side's data was kept
    loser: str
    detail: str = ""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-attempts policy for interrupted synchronizations.

    Attempt *n* (1-based) that fails is retried after
    ``initial_backoff_seconds * backoff_multiplier ** (n - 1)`` seconds,
    capped at ``max_backoff_seconds``; after ``max_attempts`` failures
    the synchronization gives up (dirty state is kept for a later try).
    Backoff time is simulated -- accumulated, never slept.
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
    def from_profile(cls, profile) -> "RetryPolicy":
        """Build the policy a :class:`~repro.faults.FaultProfile` names."""
        return cls(max_attempts=profile.max_sync_attempts,
                   initial_backoff_seconds=profile.backoff_initial_seconds,
                   backoff_multiplier=profile.backoff_multiplier,
                   max_backoff_seconds=profile.backoff_max_seconds)


@dataclass
class SyncReport:
    """What a retried synchronization did (:meth:`synchronize_with_retry`)."""

    succeeded: bool
    attempts: int
    conflicts: List[ConflictRecord] = field(default_factory=list)
    backoff_seconds: float = 0.0


@dataclass
class HoardFill:
    """The itemized outcome of one hoard (re)fill.

    ``fetched`` holds only paths actually transferred from the server;
    dirty files that survived the refill without a transfer are in
    ``retained`` -- previously they were misreported as fetched and
    their bytes escaped every budget.  ``skipped`` collects requested
    paths that did not make it in (missing on the server, over budget,
    lost to a read fault, or unreached when the fill was interrupted).
    """

    fetched: Set[str] = field(default_factory=set)
    retained: Set[str] = field(default_factory=set)
    skipped: Set[str] = field(default_factory=set)
    bytes_fetched: int = 0
    bytes_retained: int = 0
    interrupted: bool = False

    @property
    def paths(self) -> Set[str]:
        """Everything now in the hoard."""
        return self.fetched | self.retained

    @property
    def total_bytes(self) -> int:
        return self.bytes_fetched + self.bytes_retained


class ReplicationSystem(abc.ABC):
    """Common behaviour for the three substrates."""

    #: Can a connected access to a non-hoarded file be served remotely?
    supports_remote_access: bool = False
    #: Can a disconnected miss be distinguished from a nonexistent file?
    supports_miss_detection: bool = False

    def __init__(self, server: FileSystem) -> None:
        self.server = server
        self.connected = True
        self.hoarded: Dict[str, int] = {}    # path -> server version at fetch
        self.local_sizes: Dict[str, int] = {}
        self.dirty: Set[str] = set()
        self.conflicts: List[ConflictRecord] = []
        # Disconnected writes to non-hoarded paths (path -> size),
        # recorded so synchronize() can replay or report them.
        self.offline_updates: Dict[str, int] = {}
        self.faults = None                   # Optional[FaultInjector]
        self.retry_policy = RetryPolicy()
        self.last_fill: Optional[HoardFill] = None

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def inject_faults(self, injector,
                      retry_policy: Optional[RetryPolicy] = None) -> None:
        """Attach a :class:`~repro.faults.FaultInjector`.

        The retry policy defaults to the one the injector's profile
        describes.  Attaching an inert (``none``) injector leaves every
        behaviour byte-identical to no injection at all.
        """
        self.faults = injector
        if retry_policy is not None:
            self.retry_policy = retry_policy
        elif injector is not None:
            self.retry_policy = RetryPolicy.from_profile(injector.profile)

    # ------------------------------------------------------------------
    # hoard management
    # ------------------------------------------------------------------
    def fill_hoard(self, paths: Set[str],
                   budget: Optional[int] = None) -> HoardFill:
        """Replace hoard contents, itemizing the outcome.

        Locally dirty files are never evicted before synchronization,
        matching the safety behaviour of real systems; their bytes are
        charged against *budget* (when given) before any fetch, so
        :meth:`hoard_bytes` cannot silently exceed the caller's budget.
        Files that vanished from the server since SEER last saw them
        are skipped.  With faults attached, individual reads may fail
        (the file is skipped) and the whole fill may be cut short --
        the laptop then leaves *disconnected* with a partial hoard.
        """
        if not self.connected:
            raise RuntimeError("cannot refill the hoard while disconnected")
        fill = HoardFill()
        new_hoard: Dict[str, int] = {}
        new_sizes: Dict[str, int] = {}
        # Dirty survivors first: kept without a transfer, charged first.
        for path in sorted(path for path in self.dirty
                           if path in self.hoarded):
            new_hoard[path] = self.hoarded[path]
            new_sizes[path] = self.local_sizes.get(path, 0)
            fill.retained.add(path)
            fill.bytes_retained += new_sizes[path]
        total = fill.bytes_retained
        to_fetch = sorted(set(paths) - fill.retained)
        cut = self.faults.fill_interruption(len(to_fetch)) \
            if self.faults is not None else None
        for index, path in enumerate(to_fetch):
            if cut is not None and index >= cut:
                # Surprise disconnection: the user walked away with the
                # fill incomplete (paper section 5.2.2).
                fill.interrupted = True
                fill.skipped.update(to_fetch[index:])
                break
            if self.faults is not None and self.faults.read_fails():
                fill.skipped.add(path)
                continue
            node = self._server_node(path)
            if node is None:
                fill.skipped.add(path)
                continue
            if budget is not None and total + node.size > budget:
                fill.skipped.add(path)
                continue
            new_hoard[path] = node.version
            new_sizes[path] = node.size
            fill.fetched.add(path)
            fill.bytes_fetched += node.size
            total += node.size
        self.hoarded = new_hoard
        self.local_sizes = new_sizes
        self.last_fill = fill
        if fill.interrupted:
            self.faults.note_partial_fill(self._bytes_of(fill.skipped))
            self.disconnect()
        return fill

    def set_hoard(self, paths: Set[str],
                  budget: Optional[int] = None) -> Set[str]:
        """Replace hoard contents; returns the paths actually fetched.

        Retained dirty files are *not* reported here (nothing was
        transferred for them); the full itemization is in
        :attr:`last_fill` / :meth:`fill_hoard`.
        """
        return self.fill_hoard(paths, budget=budget).fetched

    def _bytes_of(self, paths: Set[str]) -> int:
        """Server-side size of *paths* (direct stats, no fault hooks)."""
        total = 0
        for path in paths:
            try:
                total += self.server.stat(path, follow_symlinks=False).size
            except FileSystemError:
                continue
        return total

    def hoarded_paths(self) -> Set[str]:
        return set(self.hoarded)

    def hoard_bytes(self) -> int:
        return sum(self.local_sizes.values())

    def _server_node(self, path: str):
        try:
            node = self.server.stat(path, follow_symlinks=False)
        except FileSystemError:
            return None
        return node

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def disconnect(self) -> None:
        self.connected = False

    def reconnect(self) -> List[ConflictRecord]:
        """Re-establish connectivity and synchronize; returns the
        conflicts discovered during this synchronization."""
        self.connected = True
        if self.faults is None:
            return self.synchronize()
        return self.synchronize_with_retry().conflicts

    def synchronize_with_retry(self,
                               policy: Optional[RetryPolicy] = None
                               ) -> SyncReport:
        """Synchronize under the bounded-attempts retry policy.

        Each attempt may be failed by the attached injector; failures
        back off exponentially (simulated time).  When every attempt
        fails the report says so and all dirty/offline state is kept
        for a later synchronization -- nothing is lost, only late.
        """
        policy = policy if policy is not None else self.retry_policy
        backoff_total = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            if self.faults is not None and self.faults.sync_attempt_fails():
                if attempt >= policy.max_attempts:
                    self.faults.note_sync_gave_up()
                    return SyncReport(succeeded=False, attempts=attempt,
                                      backoff_seconds=backoff_total)
                pause = policy.backoff_for(attempt)
                backoff_total += pause
                self.faults.note_retry(pause)
                continue
            conflicts = self.synchronize()
            return SyncReport(succeeded=True, attempts=attempt,
                              conflicts=conflicts,
                              backoff_seconds=backoff_total)
        raise AssertionError("unreachable: max_attempts >= 1")

    # ------------------------------------------------------------------
    # access and update
    # ------------------------------------------------------------------
    def access(self, path: str) -> AccessResult:
        """The outcome of the user touching *path* right now."""
        if path in self.hoarded:
            return AccessResult(path, AccessOutcome.LOCAL)
        exists_remotely = self._server_node(path) is not None
        if self.connected:
            if self.supports_remote_access and exists_remotely:
                return AccessResult(path, AccessOutcome.REMOTE)
            if exists_remotely:
                # Connected but no remote-access support: the file can
                # be fetched on demand; treat as a remote access too.
                return AccessResult(path, AccessOutcome.REMOTE)
            return AccessResult(path, AccessOutcome.NOT_FOUND)
        if exists_remotely and self.supports_miss_detection:
            return AccessResult(path, AccessOutcome.MISS)
        return AccessResult(path, AccessOutcome.NOT_FOUND)

    def local_update(self, path: str, size: Optional[int] = None) -> bool:
        """The user modified a hoarded file on the laptop."""
        if path not in self.hoarded:
            if not self.connected:
                # No local replica to update, but the write must not be
                # lost: synchronize() replays it as a new file or
                # reports it as a conflict.
                self.offline_updates[path] = size if size is not None else 0
            return False
        self.dirty.add(path)
        if size is not None:
            self.local_sizes[path] = size
        return True

    def _drain_offline_updates(self) -> List[ConflictRecord]:
        """Replay disconnected writes to non-hoarded paths.

        Called by every substrate's ``synchronize``: a path the server
        never heard of becomes a new server file; a path that exists
        server-side is an update/update race we cannot merge (there was
        no base version), reported as a conflict with the server kept.
        """
        conflicts: List[ConflictRecord] = []
        for path in sorted(self.offline_updates):
            size = self.offline_updates[path]
            node = self._server_node(path)
            if node is None:
                try:
                    self.server.create(path, size=size)
                except FileSystemError as error:
                    conflicts.append(ConflictRecord(
                        path=path, winner="server", loser="local",
                        detail=f"offline create failed: {error}"))
            else:
                conflicts.append(ConflictRecord(
                    path=path, winner="server", loser="local",
                    detail="disconnected write to non-hoarded path"))
        self.offline_updates.clear()
        return conflicts

    @abc.abstractmethod
    def synchronize(self) -> List[ConflictRecord]:
        """Propagate updates both ways; returns new conflicts."""
