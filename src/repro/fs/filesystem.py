"""The in-memory filesystem tree.

This is the substrate the simulated kernel (:mod:`repro.kernel`)
operates on.  It models the Unix object kinds SEER cares about
(section 4.6 of the paper): regular files, directories, symbolic
links, device nodes and pseudo-files, with sizes but (optionally)
contents.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.fs import paths

_MAX_SYMLINK_DEPTH = 16


class FileSystemError(Exception):
    """Base class for filesystem failures; carries the offending path."""

    def __init__(self, path: str, message: str = "") -> None:
        self.path = path
        super().__init__(message or f"{type(self).__name__}: {path}")


class NotFound(FileSystemError):
    """The path (or one of its parents) does not exist."""


class NotADirectory(FileSystemError):
    """A non-directory was used where a directory was required."""


class IsADirectory(FileSystemError):
    """A directory was used where a non-directory was required."""


class AlreadyExists(FileSystemError):
    """The target of a create/mkdir already exists."""


class SymlinkLoop(FileSystemError):
    """Symlink resolution exceeded the depth limit."""


class FileKind(enum.Enum):
    """The filesystem object kinds distinguished by the paper (sec. 4.6)."""

    REGULAR = "regular"
    DIRECTORY = "directory"
    SYMLINK = "symlink"
    DEVICE = "device"
    FIFO = "fifo"
    PSEUDO = "pseudo"

    @property
    def is_plain_file(self) -> bool:
        """True for the kinds whose hoarding SEER decides itself."""
        return self is FileKind.REGULAR

    @property
    def takes_no_space(self) -> bool:
        """Non-file objects that occupy (almost) no disk space (sec. 4.6)."""
        return self in (FileKind.DEVICE, FileKind.FIFO, FileKind.PSEUDO, FileKind.SYMLINK)


@dataclass
class Inode:
    """A single filesystem object.

    ``size`` is in bytes.  ``content`` is optional small text, present
    only where an external investigator needs to parse it.  ``version``
    counts modifications, so a re-created or rewritten inode can be
    told from the one a stale lookup would return.
    """

    kind: FileKind
    size: int = 0
    content: Optional[str] = None
    link_target: Optional[str] = None
    children: Optional[Dict[str, "Inode"]] = None
    version: int = 0
    mtime: float = 0.0

    @classmethod
    def directory(cls) -> "Inode":
        return cls(kind=FileKind.DIRECTORY, children={})

    @classmethod
    def regular(cls, size: int = 0, content: Optional[str] = None) -> "Inode":
        if content is not None and size == 0:
            size = len(content)
        return cls(kind=FileKind.REGULAR, size=size, content=content)

    @classmethod
    def symlink(cls, target: str) -> "Inode":
        return cls(kind=FileKind.SYMLINK, link_target=target, size=len(target))

    @classmethod
    def device(cls) -> "Inode":
        return cls(kind=FileKind.DEVICE)


class FileSystem:
    """A mutable in-memory file tree with Unix path semantics.

    All paths passed to methods must be absolute; relative-path
    handling (per-process working directories) lives in the kernel
    layer, mirroring the real division of labour.

    Successful lookups are memoized per ``(path, follow_symlinks)``.
    Every method that changes the tree's shape (``mkdir``, ``create``,
    ``unlink``, ``rmdir``, ``rename``) clears the memo; ``write`` edits
    the inode in place and keeps it.  Failed lookups are not cached.

    ``generation`` counts changes: each of those methods and ``write``
    raise it, and no read moves it.  Whatever a reader derives from the
    tree stays valid while ``(filesystem, generation)`` is unchanged.
    """

    def __init__(self) -> None:
        self._root = Inode.directory()
        self._clock = 0.0
        self._resolved: Dict[Tuple[str, bool], Inode] = {}
        self.generation = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def set_time(self, now: float) -> None:
        """Record the current virtual time, stamped onto modified inodes."""
        self._clock = now

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _lookup(self, path: str, follow_symlinks: bool = True) -> Inode:
        key = (path, follow_symlinks)
        node = self._resolved.get(key)
        if node is None:
            node = self._resolved[key] = self._resolve(path, follow_symlinks, 0)
        return node

    def _resolve(self, path: str, follow_symlinks: bool, depth: int) -> Inode:
        if depth > _MAX_SYMLINK_DEPTH:
            raise SymlinkLoop(path)
        node = self._root
        components = paths.split_components(paths.normalize(path))
        for index, component in enumerate(components):
            if node.kind is FileKind.SYMLINK:
                node = self._resolve(node.link_target or "/", True, depth + 1)
            if node.kind is not FileKind.DIRECTORY:
                raise NotADirectory("/" + "/".join(components[: index + 1]))
            assert node.children is not None
            child = node.children.get(component)
            if child is None:
                raise NotFound("/" + "/".join(components[: index + 1]))
            node = child
        if follow_symlinks and node.kind is FileKind.SYMLINK:
            return self._resolve(node.link_target or "/", True, depth + 1)
        return node

    def _lookup_parent(self, path: str) -> Tuple[Inode, str]:
        normalized = paths.normalize(path)
        name = paths.basename(normalized)
        if not name:
            raise FileSystemError(path, "cannot operate on the root directory")
        parent = self._lookup(paths.dirname(normalized))
        if parent.kind is not FileKind.DIRECTORY:
            raise NotADirectory(paths.dirname(normalized))
        return parent, name

    def exists(self, path: str) -> bool:
        """Return True if *path* resolves to an object."""
        try:
            self._lookup(path)
        except FileSystemError:
            return False
        return True

    def stat(self, path: str, follow_symlinks: bool = True) -> Inode:
        """Return the inode for *path*; raises :class:`NotFound` if absent."""
        return self._lookup(path, follow_symlinks=follow_symlinks)

    def kind_of(self, path: str) -> FileKind:
        return self._lookup(path).kind

    def size_of(self, path: str) -> int:
        return self._lookup(path).size

    def is_directory(self, path: str) -> bool:
        try:
            return self._lookup(path).kind is FileKind.DIRECTORY
        except FileSystemError:
            return False

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _reshaped(self) -> None:
        """After a shape change: drop the memo, raise the generation."""
        self._resolved.clear()
        self.generation += 1

    def mkdir(self, path: str, parents: bool = False) -> None:
        """Create a directory.  With *parents*, create ancestors too."""
        normalized = paths.normalize(path)
        if parents:
            prefix = ""
            for component in paths.split_components(normalized):
                prefix += "/" + component
                if not self.exists(prefix):
                    self.mkdir(prefix)
            return
        parent, name = self._lookup_parent(normalized)
        assert parent.children is not None
        if name in parent.children:
            raise AlreadyExists(normalized)
        parent.children[name] = Inode.directory()
        self._reshaped()

    def create(self, path: str, size: int = 0, content: Optional[str] = None,
               kind: FileKind = FileKind.REGULAR, link_target: Optional[str] = None,
               exist_ok: bool = True) -> Inode:
        """Create (or truncate-and-replace) an object at *path*."""
        parent, name = self._lookup_parent(path)
        assert parent.children is not None
        existing = parent.children.get(name)
        if existing is not None:
            if not exist_ok:
                raise AlreadyExists(path)
            if existing.kind is FileKind.DIRECTORY:
                raise IsADirectory(path)
        if kind is FileKind.DIRECTORY:
            node = Inode.directory()
        elif kind is FileKind.SYMLINK:
            node = Inode.symlink(link_target or "/")
        else:
            node = Inode(kind=kind, size=size, content=content)
            if content is not None and size == 0:
                node.size = len(content)
        node.mtime = self._clock
        if existing is not None:
            node.version = existing.version + 1
        parent.children[name] = node
        self._reshaped()
        return node

    def write(self, path: str, size: Optional[int] = None, content: Optional[str] = None) -> None:
        """Modify an existing regular file (bumps its version)."""
        node = self._lookup(path)
        if node.kind is FileKind.DIRECTORY:
            raise IsADirectory(path)
        if content is not None:
            node.content = content
            node.size = len(content) if size is None else size
        elif size is not None:
            node.size = size
        node.version += 1
        node.mtime = self._clock
        self.generation += 1

    def unlink(self, path: str) -> None:
        """Remove a non-directory object."""
        parent, name = self._lookup_parent(path)
        assert parent.children is not None
        node = parent.children.get(name)
        if node is None:
            raise NotFound(path)
        if node.kind is FileKind.DIRECTORY:
            raise IsADirectory(path)
        del parent.children[name]
        self._reshaped()

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        parent, name = self._lookup_parent(path)
        assert parent.children is not None
        node = parent.children.get(name)
        if node is None:
            raise NotFound(path)
        if node.kind is not FileKind.DIRECTORY:
            raise NotADirectory(path)
        if node.children:
            raise FileSystemError(path, f"directory not empty: {path}")
        del parent.children[name]
        self._reshaped()

    def rename(self, old_path: str, new_path: str) -> None:
        """Atomically move *old_path* to *new_path* (replacing a file)."""
        old_parent, old_name = self._lookup_parent(old_path)
        assert old_parent.children is not None
        node = old_parent.children.get(old_name)
        if node is None:
            raise NotFound(old_path)
        new_parent, new_name = self._lookup_parent(new_path)
        assert new_parent.children is not None
        existing = new_parent.children.get(new_name)
        if existing is not None and existing.kind is FileKind.DIRECTORY:
            raise IsADirectory(new_path)
        del old_parent.children[old_name]
        new_parent.children[new_name] = node
        self._reshaped()
        node.mtime = self._clock

    def symlink(self, target: str, link_path: str) -> None:
        """Create a symbolic link at *link_path* pointing at *target*."""
        self.create(link_path, kind=FileKind.SYMLINK, link_target=target, exist_ok=False)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def listdir(self, path: str) -> List[str]:
        """Return the sorted child names of a directory."""
        node = self._lookup(path)
        if node.kind is not FileKind.DIRECTORY:
            raise NotADirectory(path)
        assert node.children is not None
        return sorted(node.children)

    def walk(self, path: str = "/") -> Iterator[Tuple[str, Inode]]:
        """Yield ``(absolute_path, inode)`` for every object under *path*.

        The traversal is depth-first in sorted order and does not follow
        symlinks (so it terminates even with cyclic links).
        """
        normalized = paths.normalize(path)
        yield from _walk(normalized, self._lookup(normalized, follow_symlinks=False))

    def iter_files(self, path: str = "/") -> Iterator[Tuple[str, Inode]]:
        """Like :meth:`walk` but restricted to regular files."""
        for file_path, node in self.walk(path):
            if node.kind is FileKind.REGULAR:
                yield file_path, node

    def total_size(self, path: str = "/") -> int:
        """Sum of regular-file sizes under *path*."""
        return sum(node.size for _, node in self.iter_files(path))

    def file_count(self, path: str = "/") -> int:
        return sum(1 for _ in self.iter_files(path))

    # ------------------------------------------------------------------
    # cloning (a fresh tree with no lookup memo, e.g. as a test reference)
    # ------------------------------------------------------------------
    def snapshot(self) -> "FileSystem":
        """Return a deep copy of this filesystem."""
        clone = FileSystem()
        clone._clock = self._clock
        clone._root = _copy_tree(self._root)
        return clone


def _walk(path: str, node: Inode) -> Iterator[Tuple[str, Inode]]:
    """Depth-first from *node*, reached as *path*, without lookups."""
    yield path, node
    if node.kind is FileKind.DIRECTORY:
        assert node.children is not None
        base = "" if path == "/" else path
        for name in sorted(node.children):
            yield from _walk(base + "/" + name, node.children[name])


def _copy_tree(node: Inode) -> Inode:
    copy = Inode(kind=node.kind, size=node.size, content=node.content,
                 link_target=node.link_target, version=node.version, mtime=node.mtime)
    if node.children is not None:
        copy.children = {name: _copy_tree(child) for name, child in node.children.items()}
    return copy
