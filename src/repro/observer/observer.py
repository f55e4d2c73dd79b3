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
        """Entry point: process one traced system call."""
        self.records_processed += 1
        op = record.op
        if op is Operation.FORK:
            self._cwd[record.pid] = self._cwd.get(record.ppid, "/")
            self._forward(record, Action.FORK)
        elif op is Operation.EXIT:
            self._forward(record, Action.EXIT)
            self._cleanup(record.pid)
        elif op is Operation.CHDIR:
            if record.ok:
                self._cwd[record.pid] = self._absolutize(record.pid, record.path)
        elif op is Operation.OPENDIR:
            self._handle_opendir(record)
        elif op is Operation.READDIR:
            if record.ok and not self.getcwd.is_in_getcwd(record.pid):
                self.meaningless.on_readdir(record.pid, record.program, record.entries)
        elif op is Operation.CLOSEDIR:
            self.meaningless.on_directory_close(record.pid)
        elif op in (Operation.OPEN, Operation.CREATE):
            self._handle_open(record)
        elif op in (Operation.CLOSE, Operation.WRITE_CLOSE):
            if op is Operation.WRITE_CLOSE and record.ok:
                # Fed before any filtering: a write marks the program
                # as user-directed even if its opens were dropped.
                self.meaningless.on_file_write(record.pid, record.program)
            self._handle_close(record)
        elif op is Operation.STAT:
            self._handle_reference(record, Action.STAT)
        elif op is Operation.CHMOD:
            self._handle_reference(record, Action.POINT)
        elif op is Operation.EXEC:
            self._handle_exec(record)
        elif op is Operation.UNLINK:
            self._handle_reference(record, Action.DELETE)
        elif op is Operation.RENAME:
            self._handle_rename(record)
        elif op is Operation.READLINK:
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
        self._forward(record, Action.OPEN, path=path)
        if record.fd >= 0:
            self._forwarded_fds[(record.pid, record.fd)] = path

    def _handle_close(self, record: TraceRecord) -> None:
        path = self._forwarded_fds.pop((record.pid, record.fd), None)
        if path is not None:
            self._forward(record, Action.CLOSE, path=path)

    def _handle_reference(self, record: TraceRecord, action: Action) -> None:
        path = self._passes_filters(record)
        if path is None:
            return
        self._forward(record, action, path=path)

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
        self._forward(record, Action.EXEC, path=path)

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
        self._forward(record, Action.RENAME, path=old, path2=new)

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
        kind = self._kind_of(path)
        if kind is not None and not kind.is_plain_file:
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
            seq=record.seq, time=record.time, pid=record.pid, action=action,
            path=path, path2=path2, ppid=record.ppid))

    def _cleanup(self, pid: int) -> None:
        self._cwd.pop(pid, None)
        self.meaningless.on_exit(pid)
        self.getcwd.on_exit(pid)
        stale = [key for key in self._forwarded_fds if key[0] == pid]
        for key in stale:
            del self._forwarded_fds[key]
