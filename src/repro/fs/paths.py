"""Pure path manipulation helpers with Unix semantics.

These are independent of any :class:`~repro.fs.filesystem.FileSystem`
instance; they operate on strings only.  They intentionally mirror the
small subset of ``posixpath`` that the substrate needs, implemented
locally so that the simulated filesystem never depends on host-OS path
behaviour.
"""

from __future__ import annotations

from typing import List, Tuple

SEPARATOR = "/"
# A canonical absolute path other than the root ends in none of these.
_NON_CANONICAL_ENDINGS = ("/", "/.", "/..")


def is_absolute(path: str) -> bool:
    """Return True if *path* is absolute (starts with ``/``)."""
    return path.startswith(SEPARATOR)


def split_components(path: str) -> List[str]:
    """Split *path* into its non-empty components.

    ``"/usr//bin/"`` and ``"usr/bin"`` both yield ``["usr", "bin"]``;
    ``"."`` components are dropped, ``".."`` components are preserved
    (resolution happens in :func:`normalize`).
    """
    return [part for part in path.split(SEPARATOR) if part and part != "."]


def normalize(path: str, cwd: str = SEPARATOR) -> str:
    """Return the absolute, lexically normalized form of *path*.

    Relative paths are interpreted against *cwd* (itself assumed
    absolute).  ``..`` components are resolved lexically; climbing above
    the root stays at the root, as on Unix.  A path that is already
    canonical -- almost every path the observer sees -- comes back
    unchanged after a few substring tests.
    """
    if not is_absolute(path):
        path = cwd.rstrip(SEPARATOR) + SEPARATOR + path
    if path == SEPARATOR or (
            path.startswith(SEPARATOR) and "//" not in path
            and "/./" not in path and "/../" not in path
            and not path.endswith(_NON_CANONICAL_ENDINGS)):
        return path
    resolved: List[str] = []
    for part in split_components(path):
        if part == "..":
            if resolved:
                resolved.pop()
        else:
            resolved.append(part)
    return SEPARATOR + SEPARATOR.join(resolved)


def join(*parts: str) -> str:
    """Join path components; a later absolute component resets the path."""
    result = ""
    for part in parts:
        if not part:
            continue
        if is_absolute(part) or not result:
            result = part
        else:
            result = result.rstrip(SEPARATOR) + SEPARATOR + part
    return result


def dirname(path: str) -> str:
    """Return the directory portion of an absolute *path*."""
    components = split_components(path)
    if len(components) <= 1:
        return SEPARATOR
    return SEPARATOR + SEPARATOR.join(components[:-1])


def basename(path: str) -> str:
    """Return the final component of *path* (empty for the root)."""
    components = split_components(path)
    return components[-1] if components else ""


def split_extension(path: str) -> Tuple[str, str]:
    """Split ``name.ext`` into ``(name, ext)``; ext excludes the dot."""
    name = basename(path)
    if "." in name[1:]:
        stem, _, ext = name.rpartition(".")
        return stem, ext
    return name, ""


def directory_parts(path: str) -> Tuple[str, ...]:
    """The components of the directory containing *path*:
    ``/a/b/x`` -> ``("a", "b")``, ``/x`` and ``/`` -> ``()``."""
    # A normalized path splits as ["", dir..., name]; the root as ["", ""].
    return tuple(normalize(path).split(SEPARATOR)[1:-1])


def tree_distance(dir_a: Tuple[str, ...], dir_b: Tuple[str, ...]) -> int:
    """Tree edges between two directories given as
    :func:`directory_parts`: up from each to their common prefix."""
    if dir_a is dir_b:   # the arena shares one tuple per directory
        return 0
    common = 0
    for part_a, part_b in zip(dir_a, dir_b):
        if part_a != part_b:
            break
        common += 1
    return (len(dir_a) - common) + (len(dir_b) - common)


def directory_distance(path_a: str, path_b: str) -> int:
    """Paper section 3.2: distance between the *directories* of two files.

    Zero for files in the same directory, increasing for files in more
    widely separated directories.  We use the number of tree edges
    between the two containing directories (the standard tree distance):
    ``/a/b/x`` vs ``/a/b/y`` -> 0, ``/a/b/x`` vs ``/a/c/y`` -> 2.
    """
    return tree_distance(directory_parts(path_a), directory_parts(path_b))
