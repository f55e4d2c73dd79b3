"""The correlator: from observed references to file relationships.

The observer feeds classified, absolutized references here.  The
correlator (paper section 2) maintains:

* one lifetime-distance stream per process, inherited at fork and
  merged back at exit (section 4.7);
* the bounded per-file neighbor tables (section 3.1.3);
* non-open reference semantics -- exec/exit as open/close, attribute
  examinations as point references with the examine-then-open elision,
  deletions delayed by a count of total deletions, renames carrying
  identity (section 4.8);
* recency bookkeeping used by hoard ranking and by the LRU baseline.

The distance/neighbor state lives in the interned
:class:`~repro.core.arena.NeighborArena`, updated by the fused
:class:`~repro.core.arena.ColumnarEngine` and read through its
path-level :class:`~repro.core.arena.ArenaStore` (``self.store``).
The correlator drives the engine through a narrow interface (``ensure``,
``fork``, ``exit``, ``open``, ``point``, ``close``, ``rename``,
``forget``); event sequencing, recency and delayed deletion are
implemented here.  Cluster builds go to one
:class:`~repro.core.clustering.SharedNeighborPass` over the same arena,
which runs on fids and reuses the pair counts of the previous build
that cannot have changed since.

A direct transcription of the paper -- per-process lifetime-distance
calculators feeding per-entry neighbor tables, and the path-keyed
Jarvis-Patrick pass -- lives in ``tests/oracle/`` and plugs into this
class through the same two seams (the engine and the clustering
pass); ``tests/core/test_equivalence.py`` checks that both reach
byte-identical state and clusters for any event stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set

from repro.core.arena import ArenaStore, ColumnarEngine, NeighborArena
from repro.core.clustering import ClusterSet, Relation, SharedNeighborPass
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.observability import Metrics


class Action(enum.Enum):
    """Classified reference kinds the observer emits."""

    OPEN = "open"
    CLOSE = "close"
    POINT = "point"   # an open immediately followed by a close
    STAT = "stat"     # attribute examination: deferred point reference
    EXEC = "exec"     # program image opened for the process lifetime
    EXIT = "exit"
    DELETE = "delete"
    RENAME = "rename"
    FORK = "fork"


class ObservedReference(NamedTuple):
    """One classified reference delivered by the observer.

    Immutable, and built once per forwarded reference: a named tuple
    builds in less than half the time of a frozen dataclass, whose
    ``__init__`` sets each field through ``object.__setattr__``.
    """

    seq: int
    time: float
    pid: int
    action: Action
    path: str = ""
    path2: str = ""
    ppid: int = 0


# Members bound to module names for the per-record path (an
# ``Action.OPEN`` load is slow on CPython 3.11; docs/hot-path.md).
_OPEN, _CLOSE, _POINT, _STAT = Action.OPEN, Action.CLOSE, Action.POINT, Action.STAT
_EXEC, _EXIT, _DELETE = Action.EXEC, Action.EXIT, Action.DELETE
_RENAME, _FORK = Action.RENAME, Action.FORK


@dataclass
class _ProcessStream:
    """Per-process reference metadata (section 4.7).

    The distance state itself lives in the engine, keyed by pid; this
    record carries only the sequencing facts the correlator needs to
    drive it (fork lineage, the open exec image, a deferred stat).
    """

    pid: int
    ppid: int
    fork_base: int = 0            # engine open counter at fork time
    exec_image: Optional[str] = None
    pending_stat: Optional[str] = None
    pending_stat_time: float = 0.0   # observed time of the pending stat
    created_by_fork: bool = False    # stream began with a FORK record


@dataclass
class _PendingDeletion:
    path: str
    deletion_number: int


class Correlator:
    """Consumes :class:`ObservedReference` events, maintains relationships."""

    def __init__(self, parameters: SeerParameters = DEFAULT_PARAMETERS,
                 metrics: Optional[Metrics] = None) -> None:
        self._parameters = parameters
        self.metrics = metrics if metrics is not None else Metrics()
        arena = NeighborArena(parameters)
        self.store = ArenaStore(arena)
        self._engine = ColumnarEngine(arena, parameters, metrics=self.metrics)
        self._clustering = SharedNeighborPass(arena, parameters)
        self._streams: Dict[int, _ProcessStream] = {}
        self._recency: Dict[str, int] = {}
        self._recency_time: Dict[str, float] = {}
        self._reference_counter = 0
        self._deletion_counter = 0
        self._pending_deletions: List[_PendingDeletion] = []
        self.references_processed = 0

    # ------------------------------------------------------------------
    # public read API
    # ------------------------------------------------------------------
    @property
    def parameters(self) -> SeerParameters:
        return self._parameters

    def known_files(self) -> Set[str]:
        """Files with relationship state or recorded recency."""
        return set(self._recency) | set(self.store.files())

    def recency(self) -> Dict[str, int]:
        """Last reference sequence number per file (larger = newer)."""
        return dict(self._recency)

    def recency_times(self) -> Dict[str, float]:
        """Last reference wall-clock time per file."""
        return dict(self._recency_time)

    def build_clusters(self, relations: Sequence[Relation] = (),
                       exclude: Optional[Set[str]] = None) -> ClusterSet:
        """Run the clustering algorithm over the current neighbor tables.

        *exclude* removes files (typically the frequently-referenced
        set of section 4.2) from every neighbor list before clustering,
        so a shared library cannot act as a bridge that merges all
        projects into one giant cluster.

        The pass reuses each pair count of the previous build whose two
        filtered neighbor sets are unchanged and whose relation
        strength (0.0 without a relation) is the previous build's (see
        :mod:`repro.core.clustering`).
        """
        with self.metrics.timed("correlator.cluster_build"):
            now: Optional[int] = None
            stale_after: Optional[int] = None
            if self._parameters.stale_link_cutoff > 0:
                now = self._reference_counter
                stale_after = self._parameters.stale_link_cutoff
            clustering = self._clustering
            clusters = clustering.cluster(relations, exclude or frozenset(),
                                          now, stale_after)
            self.metrics.incr("cluster.counts_computed",
                              clustering.counts_computed)
            self.metrics.incr("cluster.counts_reused", clustering.counts_reused)
            return clusters

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def handle(self, reference: ObservedReference) -> None:
        """Process one observed reference."""
        self.references_processed += 1
        self.metrics.mark("correlator.ingest")
        action = reference.action
        stream = self._streams.get(reference.pid)
        if stream is None:
            stream = self._stream_for(reference.pid)

        if action is _OPEN:
            self._maybe_elide_stat(stream, reference.path)
            self._engine.open(stream.pid, reference.path,
                              self._reference_counter)
            self._touch(reference.path, reference.time)
            return
        if action is _FORK:
            self._handle_fork(reference)
            return
        self._flush_pending_stat(stream)
        if action is _CLOSE:
            self._engine.close(stream.pid, reference.path)
        elif action is _POINT:
            self._engine.point(stream.pid, reference.path,
                               self._reference_counter)
            self._touch(reference.path, reference.time)
        elif action is _STAT:
            # Deferred: discarded if immediately followed by an open of
            # the same file by the same process (section 4.8).
            stream.pending_stat = reference.path
            stream.pending_stat_time = reference.time
        elif action is _EXEC:
            self._handle_exec(stream, reference)
        elif action is _EXIT:
            self._handle_exit(stream, reference)
        elif action is _DELETE:
            self._handle_delete(stream, reference)
        elif action is _RENAME:
            self._handle_rename(stream, reference)

    # ------------------------------------------------------------------
    # per-action logic
    # ------------------------------------------------------------------
    def _stream_for(self, pid: int) -> _ProcessStream:
        stream = self._streams.get(pid)
        if stream is None:
            stream = _ProcessStream(pid=pid, ppid=0)
            self._streams[pid] = stream
            self._engine.ensure(pid)
        return stream

    def _handle_fork(self, reference: ObservedReference) -> None:
        # Touch the parent first: the child inherits its history, and
        # the engine must clone an existing stream, not invent one.
        if reference.ppid:
            self._stream_for(reference.ppid)
        fork_base = self._engine.fork(reference.pid, reference.ppid)
        self._streams[reference.pid] = _ProcessStream(
            pid=reference.pid, ppid=reference.ppid,
            fork_base=fork_base, created_by_fork=True)

    def _maybe_elide_stat(self, stream: _ProcessStream, path: str) -> None:
        if stream.pending_stat == path:
            stream.pending_stat = None        # stat-then-open: discard stat
        else:
            self._flush_pending_stat(stream)

    def _flush_pending_stat(self, stream: _ProcessStream) -> None:
        if stream.pending_stat is not None:
            path = stream.pending_stat
            stream.pending_stat = None
            self._engine.point(stream.pid, path, self._reference_counter)
            # The stat materializes with the wall-clock time at which it
            # was observed, not a zero time that would clobber the
            # file's recency for hoard ranking.
            self._touch(path, stream.pending_stat_time)

    def _handle_exec(self, stream: _ProcessStream, reference: ObservedReference) -> None:
        # Executions are treated as opens lasting until exit (sec. 4.8).
        if stream.exec_image is not None:
            self._engine.close(stream.pid, stream.exec_image)
        self._engine.open(stream.pid, reference.path, self._reference_counter)
        self._touch(reference.path, reference.time)
        stream.exec_image = reference.path

    def _handle_exit(self, stream: _ProcessStream, reference: ObservedReference) -> None:
        if stream.exec_image is not None:
            self._engine.close(stream.pid, stream.exec_image)
            stream.exec_image = None
        # Merge the history back only into the process that actually
        # forked this one.  Streams created on demand carry ppid 0, and
        # merging those into an unrelated pid-0 stream would invent
        # relationships between every orphan process's files.
        merge_ppid = 0
        if (stream.created_by_fork and stream.ppid
                and stream.ppid in self._streams):
            merge_ppid = stream.ppid
        self._engine.exit(stream.pid, merge_ppid, since=stream.fork_base)
        self._streams.pop(stream.pid, None)

    def _handle_delete(self, stream: _ProcessStream, reference: ObservedReference) -> None:
        # The deletion itself is a semantically meaningful reference.
        self._engine.point(stream.pid, reference.path,
                           self._reference_counter)
        self._touch(reference.path, reference.time)
        # Removal from internal tables is delayed, measured in total
        # deletions, so a delete-recreate cycle keeps its history.
        self._deletion_counter += 1
        self.store.marked_for_deletion.add(reference.path)
        self._pending_deletions.append(_PendingDeletion(
            path=reference.path, deletion_number=self._deletion_counter))
        self._expire_deletions()

    def _handle_rename(self, stream: _ProcessStream, reference: ObservedReference) -> None:
        old, new = reference.path, reference.path2
        # Carry identity first -- in the neighbor store and in every
        # process stream -- so the reference below lands on the new
        # name and no stale entry for the old name (often a /tmp file)
        # lingers to pollute later distances.
        self.store.rename_file(old, new)
        self._engine.rename(old, new)
        if old in self._recency:
            self._recency[new] = self._recency.pop(old)
            self._recency_time[new] = self._recency_time.pop(old, reference.time)
        self._engine.point(stream.pid, new, self._reference_counter)
        self._touch(new, reference.time)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _touch(self, path: str, time: float) -> None:
        self._reference_counter += 1
        self._recency[path] = self._reference_counter
        self._recency_time[path] = time
        if path in self.store.marked_for_deletion:
            # Re-referenced before expiry: the name was reused, keep it.
            self.store.marked_for_deletion.discard(path)
            self._pending_deletions = [
                pending for pending in self._pending_deletions
                if pending.path != path]

    def _expire_deletions(self) -> None:
        threshold = self._deletion_counter - self._parameters.delete_delay
        keep: List[_PendingDeletion] = []
        for pending in self._pending_deletions:
            if pending.deletion_number <= threshold:
                if pending.path in self.store.marked_for_deletion:
                    self.metrics.incr("correlator.deletions_expired")
                    self.store.remove_file(pending.path)
                    self._recency.pop(pending.path, None)
                    self._recency_time.pop(pending.path, None)
                    # Purge per-process histories too, or a later open
                    # would resurrect distances to the dead file.
                    self._engine.forget(pending.path)
            else:
                keep.append(pending)
        self._pending_deletions = keep
