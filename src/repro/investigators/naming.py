"""The naming-convention investigator.

Section 3.2: "Naming often provides clues to important relationships.
For example, C++ classes are often described in header files and
implemented in source files that differ only in the extension."  This
investigator relates files in the same directory whose names differ
only in extension, for configurable groups of extensions.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.clustering import Relation
from repro.fs import FileSystem
from repro.fs.paths import dirname, split_extension
from repro.investigators.base import Investigator

DEFAULT_EXTENSION_GROUPS: Tuple[Tuple[str, ...], ...] = (
    ("c", "h", "o"),
    ("cc", "cpp", "cxx", "hh", "hpp", "h", "o"),
    ("tex", "bib", "aux", "dvi", "ps"),
    ("y", "l", "c", "h"),
)


class NamingInvestigator(Investigator):
    """Relates same-stem files in related extension families."""

    strength = 2.0

    def __init__(self, filesystem: FileSystem, root: str = "/",
                 extension_groups: Sequence[Sequence[str]] = DEFAULT_EXTENSION_GROUPS,
                 strength: Optional[float] = None) -> None:
        super().__init__(filesystem, root, strength)
        self.extension_groups = [tuple(group) for group in extension_groups]

    def investigate(self) -> List[Relation]:
        by_stem: Dict[Tuple[str, str], Dict[str, str]] = defaultdict(dict)
        for path in self._files_under_root():
            stem, extension = split_extension(path)
            if extension:
                by_stem[(dirname(path), stem)][extension] = path
        relations: List[Relation] = []
        for (_, stem), extensions in sorted(by_stem.items()):
            related = self._related_files(extensions)
            if len(related) >= 2:
                relations.append(Relation(
                    files=tuple(sorted(related)), strength=self.strength,
                    source="naming"))
        return relations

    def _related_files(self, extensions: Dict[str, str]) -> Set[str]:
        related: Set[str] = set()
        for group in self.extension_groups:
            members = [extensions[ext] for ext in group if ext in extensions]
            if len(members) >= 2:
                related.update(members)
        return related
