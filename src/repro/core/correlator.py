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
``forget``); event sequencing, recency, delayed deletion and cluster
building are implemented here.

A direct transcription of the paper -- per-process lifetime-distance
calculators feeding per-entry neighbor tables -- lives in
``tests/oracle/`` and plugs into this class through the same
interface; ``tests/core/test_equivalence.py`` checks that both reach
byte-identical state for any event stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.core.arena import ArenaStore, ColumnarEngine, NeighborArena
from repro.core.clustering import ClusterSet, Relation, SharedNeighborClustering
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.core.recluster import IncrementalClusterer
from repro.fs.paths import directory_distance
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


@dataclass(frozen=True)
class ObservedReference:
    """One classified reference delivered by the observer."""

    seq: int
    time: float
    pid: int
    action: Action
    path: str = ""
    path2: str = ""
    ppid: int = 0


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
        arena = NeighborArena(parameters, metrics=self.metrics)
        self.store = ArenaStore(arena)
        self._engine = ColumnarEngine(arena, parameters, metrics=self.metrics)
        self._clusterer = IncrementalClusterer(parameters, self.metrics)
        self._prev_exclude: FrozenSet[str] = frozenset()
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

    def last_reference(self, path: str) -> Optional[int]:
        return self._recency.get(path)

    def build_clusters(self, relations: Sequence[Relation] = (),
                       use_directory_distance: bool = True,
                       exclude: Optional[Set[str]] = None) -> ClusterSet:
        """Run the clustering algorithm over the current neighbor tables.

        *exclude* removes files (typically the frequently-referenced
        set of section 4.2) from every neighbor list before clustering,
        so a shared library cannot act as a bridge that merges all
        projects into one giant cluster.

        Without a stale-link cutoff (whose effective neighbor sets shift
        with every reference), builds after the first splice in only the
        neighborhoods dirtied since the previous build instead of
        re-running Jarvis-Patrick over the whole population -- O(dirty)
        between hoard walks, with byte-identical output (see
        :mod:`repro.core.recluster` for the replay argument).
        """
        with self.metrics.timed("correlator.cluster_build"):
            distance_fn = directory_distance if use_directory_distance else None
            if self._parameters.stale_link_cutoff > 0:
                neighbor_lists = self.store.neighbor_lists(
                    now=self._reference_counter,
                    stale_after=self._parameters.stale_link_cutoff)
            else:
                neighbor_lists = self.store.neighbor_lists()
            if exclude:
                neighbor_lists = {
                    file: neighbors - exclude
                    for file, neighbors in neighbor_lists.items()
                    if file not in exclude}
            if self._parameters.stale_link_cutoff == 0:
                dirty = self.store.drain_dirty()
                exclude_set = frozenset(exclude) if exclude else frozenset()
                if exclude_set != self._prev_exclude:
                    # Exclusion changes rewrite filtered lists without
                    # touching the store: fold the delta into the dirty
                    # set so the splice reprocesses affected files.  A
                    # toggled file's neighbors are affected too -- their
                    # very membership in the clustering universe can
                    # hinge on the toggled file's list being visible.
                    for file in exclude_set ^ self._prev_exclude:
                        dirty.add(file)
                        dirty |= self.store.containing(file)
                        dirty |= self.store.neighbor_set(file)
                    self._prev_exclude = exclude_set
                return self._clusterer.build(
                    neighbor_lists, dirty,
                    parameters=self._parameters, relations=relations,
                    directory_distance=distance_fn,
                    owners_of=self.store.containing)
            self.store.drain_dirty()   # keep the dirty set bounded
            algorithm = SharedNeighborClustering(
                neighbor_lists, parameters=self._parameters,
                relations=relations, directory_distance=distance_fn)
            return algorithm.cluster()

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------
    def handle(self, reference: ObservedReference) -> None:
        """Process one observed reference."""
        self.references_processed += 1
        self.metrics.mark("correlator.ingest")
        action = reference.action
        stream = self._stream_for(reference.pid)

        if action is Action.FORK:
            self._handle_fork(reference)
            return
        if action is not Action.OPEN:
            self._flush_pending_stat(stream)

        if action is Action.OPEN:
            self._maybe_elide_stat(stream, reference.path)
            self._engine.open(stream.pid, reference.path,
                              self._reference_counter)
            self._touch(reference.path, reference.time)
        elif action is Action.CLOSE:
            self._engine.close(stream.pid, reference.path)
        elif action is Action.POINT:
            self._engine.point(stream.pid, reference.path,
                               self._reference_counter)
            self._touch(reference.path, reference.time)
        elif action is Action.STAT:
            # Deferred: discarded if immediately followed by an open of
            # the same file by the same process (section 4.8).
            self._flush_pending_stat(stream)
            stream.pending_stat = reference.path
            stream.pending_stat_time = reference.time
        elif action is Action.EXEC:
            self._handle_exec(stream, reference)
        elif action is Action.EXIT:
            self._handle_exit(stream, reference)
        elif action is Action.DELETE:
            self._handle_delete(stream, reference)
        elif action is Action.RENAME:
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
