"""The working-set oracle.

The lowest element of every Figure 2 stack is the mean working set,
"the needs of an optimum algorithm": a clairvoyant manager that hoards
exactly the files the user will reference during the disconnection.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.core.hoard import SizeFunction


def working_set(referenced: Iterable[str]) -> Set[str]:
    """The distinct files referenced during a disconnection period."""
    return set(referenced)


def working_set_size(referenced: Iterable[str], sizes: SizeFunction) -> int:
    """Total bytes an optimal (clairvoyant) hoard would need."""
    return sum(sizes(path) for path in working_set(referenced))
