"""A LITTLE WORK-like substrate: disconnected AFS with log replay.

LITTLE WORK [9] made an unmodified AFS client operate disconnected:
while connected it is an ordinary caching client; while disconnected,
updates are appended to an operation log that is *replayed* against
the servers at reconnection.  Replay conflicts (the server copy
changed underneath a logged operation) are reported for manual
resolution -- here the server copy is preserved alongside the flagged
conflict, which is what their replay tool effectively did.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.fs import FileSystem, FileSystemError
from repro.replication.base import ConflictRecord, ReplicationSystem


class LogOperation(enum.Enum):
    STORE = "store"      # file data written
    CREATE = "create"
    REMOVE = "remove"


@dataclass
class LogEntry:
    operation: LogOperation
    path: str
    size: int = 0
    base_version: int = 0   # server version the operation was based on


class LittleWork(ReplicationSystem):
    """AFS-style cache with a disconnected operation log."""

    supports_remote_access = True    # connected AFS fetches on open
    supports_miss_detection = False  # a cold cache miss is just ENOENT

    def __init__(self, server: FileSystem) -> None:
        super().__init__(server)
        self.log: List[LogEntry] = []
        self.replayed = 0

    # ------------------------------------------------------------------
    # disconnected operations (beyond base local_update)
    # ------------------------------------------------------------------
    def local_update(self, path: str, size: Optional[int] = None) -> bool:
        if not super().local_update(path, size):
            return False
        if not self.connected:
            self.log.append(LogEntry(
                operation=LogOperation.STORE, path=path,
                size=self.local_sizes.get(path, 0),
                base_version=self.hoarded.get(path, 0)))
        return True

    def local_create(self, path: str, size: int = 0) -> None:
        """A file created while disconnected lives only in the log."""
        self.local_sizes[path] = size
        self.hoarded[path] = -1   # no server version yet
        if self.connected:
            self.server.create(path, size=size)
            node = self._server_node(path)
            if node is not None:
                self.hoarded[path] = node.version
        else:
            self.log.append(LogEntry(
                operation=LogOperation.CREATE, path=path, size=size))

    def local_remove(self, path: str) -> None:
        """A disconnected unlink is logged for replay."""
        base = self.hoarded.pop(path, 0)
        self.local_sizes.pop(path, None)
        self.dirty.discard(path)
        if self.connected:
            try:
                self.server.unlink(path)
            except FileSystemError:
                pass
        else:
            self.log.append(LogEntry(
                operation=LogOperation.REMOVE, path=path, base_version=base))

    # ------------------------------------------------------------------
    # reconnection: replay the log
    # ------------------------------------------------------------------
    def synchronize(self) -> List[ConflictRecord]:
        if not self.connected:
            raise RuntimeError("cannot replay while disconnected")
        new_conflicts: List[ConflictRecord] = self._drain_offline_updates()
        for entry in self.log:
            self.replayed += 1
            node = self._server_node(entry.path)
            if entry.operation is LogOperation.CREATE:
                if node is not None:
                    new_conflicts.append(ConflictRecord(
                        path=entry.path, winner="server", loser="local",
                        detail="create collides with existing file"))
                else:
                    self.server.create(entry.path, size=entry.size)
            elif entry.operation is LogOperation.STORE:
                if node is None:
                    new_conflicts.append(ConflictRecord(
                        path=entry.path, winner="local", loser="server",
                        detail="store to a file removed on server"))
                    self.server.create(entry.path, size=entry.size)
                elif node.version != entry.base_version:
                    # Replay conflict: flagged for manual resolution;
                    # the server copy is preserved.
                    new_conflicts.append(ConflictRecord(
                        path=entry.path, winner="server", loser="local",
                        detail=f"replay conflict (server v{node.version}, "
                               f"log based on v{entry.base_version})"))
                else:
                    self.server.write(entry.path, size=entry.size)
            elif entry.operation is LogOperation.REMOVE:
                if node is None:
                    pass   # already gone
                elif node.version != entry.base_version:
                    new_conflicts.append(ConflictRecord(
                        path=entry.path, winner="server", loser="local",
                        detail="remove of a file updated on server"))
                else:
                    self.server.unlink(entry.path)
        self.log.clear()
        # Refresh cached versions after replay.
        for path in sorted(self.hoarded):
            node = self._server_node(path)
            if node is None:
                if self.hoarded.get(path) != -1:
                    self.hoarded.pop(path, None)
                    self.local_sizes.pop(path, None)
            else:
                self.hoarded[path] = node.version
                self.local_sizes[path] = node.size
        self.dirty.clear()
        self.conflicts.extend(new_conflicts)
        return new_conflicts
