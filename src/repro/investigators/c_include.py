"""The C ``#include`` investigator.

The paper's authors "developed a simple script that can read C source
files to discover #include relationships that are then passed to the
correlator for inclusion in the clustering decision" (section 3.2).
This is that script: it scans ``.c``/``.h``/``.cc``/``.cpp`` files,
parses their ``#include`` lines, resolves quoted includes relative to
the including file's directory (with an include-path fallback for
angle-bracket includes), and emits one relation per source file linking
it with its headers.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence

from repro.core.clustering import Relation
from repro.fs import FileSystem, FileSystemError
from repro.fs.paths import dirname, join, normalize, split_extension
from repro.investigators.base import Investigator

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^">]+)[">]')

C_EXTENSIONS = ("c", "h", "cc", "cpp", "cxx", "hh", "hpp")


class CIncludeInvestigator(Investigator):
    """Extracts ``#include`` relationships from C/C++ sources."""

    strength = 3.0  # a #include "indicates a very strong inter-file
                    # relationship" (section 3.2)

    def __init__(self, filesystem: FileSystem, root: str = "/",
                 include_path: Sequence[str] = ("/usr/include",),
                 strength: Optional[float] = None) -> None:
        super().__init__(filesystem, root, strength)
        self.include_path = list(include_path)

    def investigate(self) -> List[Relation]:
        relations: List[Relation] = []
        for path in self._files_under_root():
            _, extension = split_extension(path)
            if extension not in C_EXTENSIONS:
                continue
            includes = self._includes_of(path)
            if includes:
                relations.append(Relation(
                    files=tuple([path] + includes), strength=self.strength,
                    source="c-include"))
        return relations

    def _includes_of(self, path: str) -> List[str]:
        try:
            node = self.fs.stat(path)
        except FileSystemError:
            return []
        if not node.content:
            return []
        found: List[str] = []
        for line in node.content.splitlines():
            match = _INCLUDE_RE.match(line)
            if match is None:
                continue
            resolved = self._resolve(match.group(2), quoted=match.group(1) == '"',
                                     including_file=path)
            if resolved is not None and resolved != path:
                found.append(resolved)
        return found

    def _resolve(self, name: str, quoted: bool, including_file: str) -> Optional[str]:
        candidates: List[str] = []
        if quoted:
            candidates.append(normalize(join(dirname(including_file), name)))
        candidates.extend(normalize(join(directory, name))
                          for directory in self.include_path)
        for candidate in candidates:
            if self.fs.exists(candidate):
                return candidate
        return None
