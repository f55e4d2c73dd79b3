"""The hot-link investigator.

Section 3.2 describes WINDOWS OLE "hot links" that interlink documents,
graphs and other objects into larger structures, "valuable and low-cost
information about fundamental relationships among members of a
project".  Our document substrate has no OLE, so links are modelled the
way a document format would embed them: a ``link: <path>`` line inside
the file content.  The investigator scans document files for such lines
and emits one relation per document linking it with its targets.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.core.clustering import Relation
from repro.fs import FileSystemError
from repro.fs.paths import dirname, join, normalize, split_extension
from repro.investigators.base import Investigator

_LINK_RE = re.compile(r"^\s*link:\s*(\S+)\s*$", re.MULTILINE)

DOCUMENT_EXTENSIONS = ("doc", "xls", "ppt", "tex", "txt", "md")


class HotLinkInvestigator(Investigator):
    """Extracts embedded document links (the OLE analogue)."""

    strength = 3.0

    def investigate(self) -> List[Relation]:
        relations: List[Relation] = []
        for path in self._files_under_root():
            _, extension = split_extension(path)
            if extension not in DOCUMENT_EXTENSIONS:
                continue
            targets = self._links_of(path)
            if targets:
                relations.append(Relation(
                    files=tuple([path] + targets), strength=self.strength,
                    source="hotlink"))
        return relations

    def _links_of(self, path: str) -> List[str]:
        try:
            node = self.fs.stat(path)
        except FileSystemError:
            return []
        if not node.content:
            return []
        targets: List[str] = []
        for target in _LINK_RE.findall(node.content):
            resolved = self._resolve(target, path)
            if resolved is not None and resolved != path:
                targets.append(resolved)
        return targets

    def _resolve(self, target: str, source: str) -> Optional[str]:
        candidate = normalize(join(dirname(source), target)) \
            if not target.startswith("/") else normalize(target)
        return candidate if self.fs.exists(candidate) else None
