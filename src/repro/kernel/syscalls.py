"""The traced system-call layer.

Workload generators drive :class:`Kernel` exactly the way applications
drive a real kernel: relative paths, file descriptors, fork/exec/exit.
Each call is converted into a :class:`~repro.tracing.events.TraceRecord`
delivered to every registered sink, following the paper's tracing
rules (sections 4.10 and 4.11).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.fs import FileKind, FileSystem, FileSystemError, paths
from repro.kernel.clock import VirtualClock
from repro.kernel.process import OpenFile, Process, ProcessTable
from repro.tracing.events import Operation, TraceRecord

TraceSink = Callable[[TraceRecord], None]


class Kernel:
    """Simulated kernel tying together filesystem, processes and tracing."""

    def __init__(self, filesystem: Optional[FileSystem] = None,
                 clock: Optional[VirtualClock] = None,
                 trace_superuser: bool = False) -> None:
        self.fs = filesystem if filesystem is not None else FileSystem()
        self.clock = clock if clock is not None else VirtualClock()
        self.processes = ProcessTable()
        self.trace_superuser = trace_superuser
        self._sinks: List[TraceSink] = []
        self._untraced_pids: Set[int] = set()
        self._seq = 0
        self.records_emitted = 0
        self.records_suppressed = 0

    # ------------------------------------------------------------------
    # tracer management
    # ------------------------------------------------------------------
    def add_sink(self, sink: TraceSink) -> None:
        """Register a trace consumer (e.g. the SEER observer)."""
        self._sinks.append(sink)

    def exempt_process(self, process: Process) -> None:
        """Never trace *process* (SEER's own observer/correlator, sec. 4.10)."""
        self._untraced_pids.add(process.pid)

    def _emit(self, process: Process, op: Operation, path: str = "",
              path2: str = "", ok: bool = True, fd: int = -1,
              entries: int = 0, ppid: int = 0) -> None:
        self._seq += 1
        if process.pid in self._untraced_pids:
            self.records_suppressed += 1
            return
        if process.uid == 0 and not self.trace_superuser:
            # Superuser calls are not traced to avoid tracer deadlock
            # (section 4.10); this loses e.g. cron-invoked activity.
            self.records_suppressed += 1
            return
        record = TraceRecord(seq=self._seq, time=self.clock.now, pid=process.pid,
                             op=op, path=path, path2=path2, ok=ok,
                             uid=process.uid, program=process.program,
                             ppid=ppid, fd=fd, entries=entries)
        self.records_emitted += 1
        for sink in self._sinks:
            sink(record)

    def _resolve(self, process: Process, path: str) -> str:
        return paths.normalize(path, cwd=process.cwd)

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def fork(self, parent: Process) -> Process:
        """fork(2): returns the child.  The record's pid is the child's."""
        child = self.processes.fork(parent)
        if parent.pid in self._untraced_pids:
            self._untraced_pids.add(child.pid)
        # Trace from the child's perspective so the observer can link
        # the new reference stream to its parent's (section 4.7).
        self._emit(child, Operation.FORK, ppid=parent.pid)
        return child

    def exec(self, process: Process, program_path: str) -> bool:
        """execve(2): traced *before* execution (section 4.11).

        Execution of a program is treated by the correlator as an open
        of the image that lasts until process exit (section 4.8).
        """
        absolute = self._resolve(process, program_path)
        self._emit(process, Operation.EXEC, path=program_path)
        if not self.fs.exists(absolute):
            return False
        process.program = paths.basename(absolute)
        return True

    def spawn(self, parent: Process, program_path: str) -> Process:
        """Convenience fork+exec, the common idiom in workloads."""
        child = self.fork(parent)
        self.exec(child, program_path)
        return child

    def exit(self, process: Process) -> None:
        """exit(2): traced before the process dies (section 4.11)."""
        self._emit(process, Operation.EXIT)
        self.processes.exit(process)

    # ------------------------------------------------------------------
    # file calls
    # ------------------------------------------------------------------
    def open(self, process: Process, path: str, write: bool = False,
             create: bool = False, size: int = 0,
             content: Optional[str] = None) -> int:
        """open(2): returns an fd, or -1 on failure (which is traced)."""
        absolute = self._resolve(process, path)
        op = Operation.CREATE if create else Operation.OPEN
        try:
            if create:
                self.fs.set_time(self.clock.now)
                node = self.fs.create(absolute, size=size, content=content)
            else:
                node = self.fs.stat(absolute)
                if node.kind is FileKind.DIRECTORY:
                    raise FileSystemError(absolute, "is a directory; use opendir")
        except FileSystemError:
            self._emit(process, op, path=path, ok=False)
            return -1
        fd = process.allocate_fd(OpenFile(path=absolute, wrote=write or create))
        self._emit(process, op, path=path, ok=True, fd=fd)
        return fd

    def write(self, process: Process, fd: int, size: Optional[int] = None,
              content: Optional[str] = None) -> bool:
        """write(2): not traced (section 3.1), but marks the fd dirty."""
        open_file = process.fds.get(fd)
        if open_file is None:
            return False
        open_file.wrote = True
        self.fs.set_time(self.clock.now)
        try:
            self.fs.write(open_file.path, size=size, content=content)
        except FileSystemError:
            return False
        return True

    def close(self, process: Process, fd: int) -> bool:
        """close(2)."""
        open_file = process.fds.pop(fd, None)
        if open_file is None:
            self._emit(process, Operation.CLOSE, ok=False, fd=fd)
            return False
        op = Operation.CLOSEDIR if open_file.is_directory else (
            Operation.WRITE_CLOSE if open_file.wrote else Operation.CLOSE)
        self._emit(process, op, path=open_file.path, fd=fd)
        return True

    def stat(self, process: Process, path: str) -> bool:
        """stat(2)/access(2): attribute examination (section 4.8)."""
        absolute = self._resolve(process, path)
        ok = self.fs.exists(absolute)
        self._emit(process, Operation.STAT, path=path, ok=ok)
        return ok

    def chmod(self, process: Process, path: str) -> bool:
        """chmod/utime-style attribute modification."""
        absolute = self._resolve(process, path)
        ok = self.fs.exists(absolute)
        self._emit(process, Operation.CHMOD, path=path, ok=ok)
        return ok

    def unlink(self, process: Process, path: str) -> bool:
        """unlink(2)."""
        absolute = self._resolve(process, path)
        try:
            self.fs.unlink(absolute)
            ok = True
        except FileSystemError:
            ok = False
        self._emit(process, Operation.UNLINK, path=path, ok=ok)
        return ok

    def rename(self, process: Process, old: str, new: str) -> bool:
        """rename(2)."""
        absolute_old = self._resolve(process, old)
        absolute_new = self._resolve(process, new)
        self.fs.set_time(self.clock.now)
        try:
            self.fs.rename(absolute_old, absolute_new)
            ok = True
        except FileSystemError:
            ok = False
        self._emit(process, Operation.RENAME, path=old, path2=new, ok=ok)
        return ok

    def mkdir(self, process: Process, path: str) -> bool:
        """mkdir(2)."""
        absolute = self._resolve(process, path)
        try:
            self.fs.mkdir(absolute)
            ok = True
        except FileSystemError:
            ok = False
        self._emit(process, Operation.MKDIR, path=path, ok=ok)
        return ok

    def symlink(self, process: Process, target: str, link_path: str) -> bool:
        """symlink(2)."""
        absolute = self._resolve(process, link_path)
        try:
            self.fs.symlink(target, absolute)
            ok = True
        except FileSystemError:
            ok = False
        self._emit(process, Operation.SYMLINK, path=link_path, path2=target, ok=ok)
        return ok

    def chdir(self, process: Process, path: str) -> bool:
        """chdir(2): traced so the observer can absolutize later paths."""
        absolute = self._resolve(process, path)
        ok = self.fs.is_directory(absolute)
        if ok:
            process.cwd = absolute
        self._emit(process, Operation.CHDIR, path=path, ok=ok)
        return ok

    # ------------------------------------------------------------------
    # directory reading (the raw material of section 4.1's heuristics)
    # ------------------------------------------------------------------
    def opendir(self, process: Process, path: str) -> int:
        """opendir(3): open a directory for reading."""
        absolute = self._resolve(process, path)
        if not self.fs.is_directory(absolute):
            self._emit(process, Operation.OPENDIR, path=path, ok=False)
            return -1
        fd = process.allocate_fd(OpenFile(path=absolute, is_directory=True))
        self._emit(process, Operation.OPENDIR, path=path, ok=True, fd=fd)
        return fd

    def readdir(self, process: Process, fd: int) -> List[str]:
        """readdir(3): returns all entry names; the count is traced."""
        open_file = process.fds.get(fd)
        if open_file is None or not open_file.is_directory:
            self._emit(process, Operation.READDIR, ok=False, fd=fd)
            return []
        names = self.fs.listdir(open_file.path)
        self._emit(process, Operation.READDIR, path=open_file.path,
                   fd=fd, entries=len(names))
        return names

    def scandir(self, process: Process, path: str) -> List[str]:
        """Convenience opendir+readdir+close, as most programs do."""
        fd = self.opendir(process, path)
        if fd < 0:
            return []
        names = self.readdir(process, fd)
        self.close(process, fd)
        return names

    def getcwd(self, process: Process) -> str:
        """getcwd(3) as the C library implements it (section 4.1).

        The library climbs the tree, opening and reading each ancestor
        directory to find the name of the level below -- a pattern
        indistinguishable from find(1) unless specially detected.
        """
        current = process.cwd
        while current != "/":
            parent = paths.dirname(current)
            fd = self.opendir(process, parent)
            if fd >= 0:
                self.readdir(process, fd)
                self.close(process, fd)
            current = parent
        return process.cwd
