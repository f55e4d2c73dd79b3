"""Trace record definitions.

A :class:`TraceRecord` is one traced system call.  Paths are recorded
exactly as the process issued them (possibly relative); converting them
to absolute form is the observer's job (section 2 of the paper), so the
record also carries enough process context (pid, fork/chdir events) for
the observer to maintain its own per-process working-directory map.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Operation(enum.Enum):
    """The traced system-call kinds (paper sections 4.8 and 4.11)."""

    OPEN = "open"
    CLOSE = "close"
    CREATE = "create"          # open with O_CREAT / creat(2)
    EXEC = "exec"              # traced *before* execution (sec. 4.11)
    EXIT = "exit"              # traced *before* execution (sec. 4.11)
    FORK = "fork"
    STAT = "stat"              # attribute examination (sec. 4.8)
    CHMOD = "chmod"            # attribute modification
    UNLINK = "unlink"
    RENAME = "rename"
    MKDIR = "mkdir"
    RMDIR = "rmdir"
    SYMLINK = "symlink"
    READLINK = "readlink"
    OPENDIR = "opendir"        # directory opened for reading (sec. 4.1)
    READDIR = "readdir"
    CLOSEDIR = "closedir"
    CHDIR = "chdir"
    WRITE_CLOSE = "write_close"  # close of a file that was written


@dataclass
class TraceRecord:
    """One traced system call.

    ``seq``       global sequence number assigned by the tracer.
    ``time``      virtual wall-clock seconds.
    ``pid``       calling process.
    ``ppid``      parent pid (only meaningful for FORK records, where
                  ``pid`` is the *child*).
    ``op``        the operation.
    ``path``      primary path argument, exactly as issued (may be
                  relative).
    ``path2``     secondary path (rename target, symlink target).
    ``ok``        whether the call succeeded.
    ``uid``       calling user id (0 = superuser; mostly untraced,
                  section 4.10 -- but the uid is recorded so filters can
                  be tested).
    ``program``   name of the program image the process is running,
                  known at trace time; used by the meaningless-process
                  machinery (section 4.1).
    ``fd``        file descriptor for open/close pairing.
    ``entries``   for READDIR: number of directory entries returned
                  (feeds the potential-access counter, section 4.1).
    """

    seq: int
    time: float
    pid: int
    op: Operation
    path: str = ""
    path2: str = ""
    ok: bool = True
    uid: int = 1000
    program: str = ""
    ppid: int = 0
    fd: int = -1
    entries: int = 0

    def replace(self, **changes: object) -> "TraceRecord":
        """Return a copy of this record with *changes* applied."""
        data = self.__dict__.copy()
        data.update(changes)
        return TraceRecord(**data)
