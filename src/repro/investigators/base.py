"""The investigator interface.

Investigators examine the filesystem and return
:class:`~repro.core.clustering.Relation` groups.  The relations act on
the clustering algorithm's shared-neighbor counts (section 3.3.3), and
a sufficiently strong relation forces files into one cluster.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional

from repro.core.clustering import Relation
from repro.fs import FileSystem


class Investigator(abc.ABC):
    """Base class: scan a filesystem subtree, emit relations."""

    #: default strength attached to this investigator's relations
    strength: float = 2.0

    def __init__(self, filesystem: FileSystem, root: str = "/",
                 strength: Optional[float] = None) -> None:
        self.fs = filesystem
        self.root = root
        if strength is not None:
            self.strength = strength

    @abc.abstractmethod
    def investigate(self) -> List[Relation]:
        """Scan and return the discovered relations.

        The relations must be a function of the filesystem under
        ``root``: :meth:`repro.core.seer.Seer.investigate` reuses them
        until ``self.fs.generation`` moves, without calling this again.
        """

    def _files_under_root(self) -> Iterable[str]:
        if not self.fs.exists(self.root):
            return []
        return (path for path, _ in self.fs.iter_files(self.root))
