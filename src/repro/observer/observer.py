"""The observer engine: trace records in, classified references out.

Responsibilities (paper sections 2 and 4):

* maintain per-process working directories (from fork/chdir records)
  and convert every pathname to absolute form;
* classify each traced call into the correlator's reference kinds;
* apply the real-world filters: meaningless processes, getcwd,
  transient directories, critical files and dot-files, non-file
  objects, and the 1 % frequently-referenced-file rule;
* account always-hoard candidates (frequent files, critical files,
  non-file objects) for the hoard manager;
* surface failed accesses so the miss-detection machinery can inspect
  them while disconnected.
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Tuple

from repro.core.correlator import Action, ObservedReference
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.fs import FileKind, FileSystem, FileSystemError
from repro.fs.paths import normalize
from repro.observer.control_file import ControlConfig
from repro.observer.filters import (
    FrequentFileDetector,
    GetcwdDetector,
    MeaninglessDetector,
    MeaninglessStrategy,
)
from repro.tracing.events import Operation, TraceRecord

if TYPE_CHECKING:
    from repro.kernel.process import ProcessTable

ReferenceHandler = Callable[[ObservedReference], None]
FailedAccessCallback = Callable[[str, float], None]

# Enum members bound to module names.  On CPython 3.11 ``EnumType``
# defines ``__getattr__``, so each ``Operation.STAT`` load takes the
# slow attribute hook (about 0.1 us); a global load costs next to
# nothing.  The per-record path names members only through these.
_OP_STAT, _OP_OPEN, _OP_CREATE = Operation.STAT, Operation.OPEN, Operation.CREATE
_OP_CLOSE, _OP_WRITE_CLOSE = Operation.CLOSE, Operation.WRITE_CLOSE
_OP_OPENDIR, _OP_READDIR, _OP_CLOSEDIR = (
    Operation.OPENDIR, Operation.READDIR, Operation.CLOSEDIR)
_OP_FORK, _OP_EXEC, _OP_EXIT = Operation.FORK, Operation.EXEC, Operation.EXIT
_OP_CHDIR, _OP_CHMOD, _OP_UNLINK = Operation.CHDIR, Operation.CHMOD, Operation.UNLINK
_OP_RENAME, _OP_READLINK = Operation.RENAME, Operation.READLINK
_ACT_STAT, _ACT_OPEN, _ACT_CLOSE = Action.STAT, Action.OPEN, Action.CLOSE
_ACT_FORK, _ACT_EXEC, _ACT_EXIT = Action.FORK, Action.EXEC, Action.EXIT
_ACT_POINT, _ACT_DELETE, _ACT_RENAME = Action.POINT, Action.DELETE, Action.RENAME


class Observer:
    """Converts :class:`TraceRecord` streams into correlator references."""

    def __init__(self, handler: ReferenceHandler,
                 control: Optional[ControlConfig] = None,
                 parameters: SeerParameters = DEFAULT_PARAMETERS,
                 filesystem: Optional[FileSystem] = None,
                 strategy: MeaninglessStrategy = MeaninglessStrategy.THRESHOLD,
                 on_failed_access: Optional[FailedAccessCallback] = None,
                 process_table: Optional["ProcessTable"] = None) -> None:
        self._handler = handler
        # A private copy: the control file is read once, so a verdict
        # computed for a path holds for the observer's lifetime.
        self._control = copy.deepcopy(control) if control is not None else ControlConfig()
        self._parameters = parameters
        self._fs = filesystem
        self._on_failed_access = on_failed_access
        # Like the real observer reading /proc at startup: used only to
        # learn the initial cwd of processes that predate observation.
        self._process_table = process_table

        self.meaningless = MeaninglessDetector(
            strategy=strategy,
            control_programs=self._control.meaningless_programs,
            parameters=parameters)
        self.getcwd = GetcwdDetector()
        self.frequent = FrequentFileDetector(parameters)

        self._cwd: Dict[int, str] = {}
        self._verdicts: Dict[str, Tuple[bool, bool, bool]] = {}
        # Path -> "an existing object that is not a plain file", valid
        # while the filesystem's generation is _nonfile_generation.
        self._nonfile: Dict[str, bool] = {}
        self._nonfile_generation = -1
        self._forwarded_fds: Dict[Tuple[int, int], str] = {}
        self.critical_seen: Set[str] = set()
        self.nonfiles_seen: Set[str] = set()
        self.records_processed = 0
        self.references_forwarded = 0
        self.drops: Counter = Counter()

    # ------------------------------------------------------------------
    # always-hoard accounting
    # ------------------------------------------------------------------
    def always_hoard_paths(self) -> Set[str]:
        """Files that bypass clustering and are always hoarded
        (sections 4.2, 4.3, 4.6)."""
        return self.frequent.frequent_files() | self.critical_seen | self.nonfiles_seen

    # ------------------------------------------------------------------
    # record dispatch
    # ------------------------------------------------------------------
    def handle_record(self, record: TraceRecord) -> None:
        """Entry point: process one traced system call.

        The operations are tested most frequent first (stats are 44% of
        the reference traces' records), against the aliases above.
        """
        self.records_processed += 1
        op = record.op
        if op is _OP_STAT:
            self._handle_reference(record, _ACT_STAT)
        elif op is _OP_OPEN or op is _OP_CREATE:
            self._handle_open(record)
        elif op is _OP_CLOSE or op is _OP_WRITE_CLOSE:
            if op is _OP_WRITE_CLOSE and record.ok:
                # Fed before any filtering: a write marks the program
                # as user-directed even if its opens were dropped.
                self.meaningless.on_file_write(record.pid, record.program)
            self._handle_close(record)
        elif op is _OP_OPENDIR:
            self._handle_opendir(record)
        elif op is _OP_READDIR:
            if record.ok and not self.getcwd.is_in_getcwd(record.pid):
                self.meaningless.on_readdir(record.pid, record.program, record.entries)
        elif op is _OP_CLOSEDIR:
            self.meaningless.on_directory_close(record.pid)
        elif op is _OP_FORK:
            self._cwd[record.pid] = self._cwd.get(record.ppid, "/")
            self._forward(record, _ACT_FORK)
        elif op is _OP_EXEC:
            self._handle_exec(record)
        elif op is _OP_EXIT:
            self._forward(record, _ACT_EXIT)
            self._cleanup(record.pid)
        elif op is _OP_CHDIR:
            if record.ok:
                self._cwd[record.pid] = self._absolutize(record.pid, record.path)
        elif op is _OP_CHMOD:
            self._handle_reference(record, _ACT_POINT)
        elif op is _OP_UNLINK:
            self._handle_reference(record, _ACT_DELETE)
        elif op is _OP_RENAME:
            self._handle_rename(record)
        elif op is _OP_READLINK:
            if record.ok:
                self.nonfiles_seen.add(self._absolutize(record.pid, record.path))
        # MKDIR, RMDIR, SYMLINK: directory / non-file creation -- the
        # objects are excluded from distance calculation (section 4.6).

    # ------------------------------------------------------------------
    # per-operation handling
    # ------------------------------------------------------------------
    def _handle_opendir(self, record: TraceRecord) -> None:
        if not record.ok:
            return
        path = self._absolutize(record.pid, record.path)
        in_getcwd = self.getcwd.on_directory_open(record.pid, path)
        if not in_getcwd:
            self.meaningless.on_directory_open(record.pid)

    def _handle_open(self, record: TraceRecord) -> None:
        path = self._passes_filters(record)
        if path is None:
            return
        self._forward(record, _ACT_OPEN, path)
        if record.fd >= 0:
            self._forwarded_fds[(record.pid, record.fd)] = path

    def _handle_close(self, record: TraceRecord) -> None:
        path = self._forwarded_fds.pop((record.pid, record.fd), None)
        if path is not None:
            self._forward(record, _ACT_CLOSE, path)

    def _handle_reference(self, record: TraceRecord, action: Action) -> None:
        path = self._passes_filters(record)
        if path is None:
            return
        self._forward(record, action, path)

    def _handle_exec(self, record: TraceRecord) -> None:
        """Program executions are launch events, not data accesses.

        They are classified for the correlator (an exec is an open that
        lasts until exit, section 4.8) but bypass the meaningless
        machinery entirely: a shell launching find(1) is not itself
        scanning the disk, and the exec must not count as a "touch" for
        the calling program's threshold heuristic.  The exec also
        resets the process's per-process counters -- it is a new
        program image now, judged by its own program's history.
        """
        self.getcwd.on_other_activity(record.pid)
        if not record.ok:
            self.drops["failed"] += 1
            return
        path = self._absolutize(record.pid, record.path)
        self.meaningless.on_exit(record.pid)   # fresh counters post-exec
        transient, _, critical = self._control_verdicts(path)
        if transient:
            self.drops["transient"] += 1
            return
        if critical:
            self.critical_seen.add(path)
            self.drops["critical"] += 1
            return
        if self.frequent.record(path):
            self.drops["frequent"] += 1
            return
        self._forward(record, _ACT_EXEC, path)

    def _handle_rename(self, record: TraceRecord) -> None:
        if not record.ok:
            return
        self.getcwd.on_other_activity(record.pid)
        old = self._absolutize(record.pid, record.path)
        new = self._absolutize(record.pid, record.path2)
        if self._control_verdicts(old)[0] and self._control_verdicts(new)[0]:
            self.drops["transient"] += 1
            return
        if self._is_filtered_process(record):
            return
        self._forward(record, _ACT_RENAME, old, new)

    # ------------------------------------------------------------------
    # the filter pipeline
    # ------------------------------------------------------------------
    def _passes_filters(self, record: TraceRecord) -> Optional[str]:
        """Run the section-4 filters; returns the absolute path to
        forward, or None if the reference must be dropped."""
        self.getcwd.on_other_activity(record.pid)
        if not record.ok:
            self.drops["failed"] += 1
            if self._on_failed_access is not None:
                self._on_failed_access(
                    self._absolutize(record.pid, record.path), record.time)
            return None
        path = self._absolutize(record.pid, record.path)
        self.meaningless.on_file_access(record.pid, record.program)
        transient, ignored, critical = self._control_verdicts(path)
        if transient:
            self.drops["transient"] += 1
            return None
        if ignored:
            self.nonfiles_seen.add(path)
            self.drops["ignored-object"] += 1
            return None
        if critical:
            self.critical_seen.add(path)
            self.drops["critical"] += 1
            return None
        if self._is_nonfile(path):
            self.nonfiles_seen.add(path)
            self.drops["non-file"] += 1
            return None
        if self._is_filtered_process(record):
            return None
        if self.frequent.record(path):
            self.drops["frequent"] += 1
            return None
        return path

    def _is_filtered_process(self, record: TraceRecord) -> bool:
        if self.meaningless.is_meaningless(record.pid, record.program):
            self.drops["meaningless"] += 1
            return True
        if self.getcwd.is_in_getcwd(record.pid):
            self.drops["getcwd"] += 1
            return True
        return False

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _absolutize(self, pid: int, path: str) -> str:
        cwd = self._cwd.get(pid)
        if cwd is None:
            cwd = "/"
            if self._process_table is not None:
                process = self._process_table.get(pid)
                if process is not None:
                    cwd = process.cwd
            self._cwd[pid] = cwd
        return normalize(path, cwd=cwd)

    def _control_verdicts(self, path: str) -> Tuple[bool, bool, bool]:
        """(transient, ignored object, critical) for an absolute *path*,
        computed once per path against the private control copy."""
        verdicts = self._verdicts.get(path)
        if verdicts is None:
            control = self._control
            verdicts = self._verdicts[path] = (
                control.is_transient(path), control.is_ignored_object(path),
                control.is_critical(path))
        return verdicts

    def _is_nonfile(self, path: str) -> bool:
        """Does *path* name an existing object that is not a plain file?

        Asked through :meth:`_kind_of` once per path while the
        filesystem's ``generation`` holds: every change to the tree
        raises it, and the answers are dropped when it has moved.  A
        replay never changes its trace's tree, so it stats each path
        once.
        """
        filesystem = self._fs
        if filesystem is None:
            return False
        if filesystem.generation != self._nonfile_generation:
            self._nonfile.clear()
            self._nonfile_generation = filesystem.generation
        verdict = self._nonfile.get(path)
        if verdict is None:
            kind = self._kind_of(path)
            verdict = self._nonfile[path] = (
                kind is not None and not kind.is_plain_file)
        return verdict

    def _kind_of(self, path: str) -> Optional[FileKind]:
        if self._fs is None:
            return None
        try:
            return self._fs.stat(path, follow_symlinks=False).kind
        except FileSystemError:
            return None

    def _forward(self, record: TraceRecord, action: Action,
                 path: str = "", path2: str = "") -> None:
        self.references_forwarded += 1
        self._handler(ObservedReference(
            record.seq, record.time, record.pid, action, path, path2,
            record.ppid))

    def _cleanup(self, pid: int) -> None:
        self._cwd.pop(pid, None)
        self.meaningless.on_exit(pid)
        self.getcwd.on_exit(pid)
        stale = [key for key in self._forwarded_fds if key[0] == pid]
        for key in stale:
            del self._forwarded_fds[key]
