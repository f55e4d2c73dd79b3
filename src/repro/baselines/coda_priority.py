"""CODA-style priority hoarding (paper sections 5.1.2 and 6.2).

CODA enhanced simple LRU by letting the user assign a "hoarding
priority" offset to files or groups of files ("hoard profiles"); a
global bound arranged that for older files the offset controlled the
decision regardless of reference order.  The paper simulated "three
schemes inspired by the formula used in CODA", all of which performed
worse than LRU without the ongoing hand management they were designed
to expect; results were therefore not reported.

The experiments run the bounded reading with no hoard profile, which is
what an unmanaged CODA user has: priority is the age in references,
clamped at :data:`AGE_HORIZON` (the "global bound" of section 6.2), so
files older than the horizon all tie and rank by path.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.hoard import SizeFunction, ranked_prefix_size

#: References after which a file's age stops counting against it.
AGE_HORIZON = 1000


class CodaPriorityManager:
    """Bounded-age LRU: CODA's priority formula with no offsets."""

    def __init__(self) -> None:
        self._recency: Dict[str, int] = {}
        self._counter = 0

    def reference(self, path: str) -> None:
        self._counter += 1
        self._recency[path] = self._counter

    def ranking(self) -> List[str]:
        """Most recent first; past the horizon, by path."""
        return sorted(self._recency, key=lambda path: (
            min(self._counter - self._recency[path], AGE_HORIZON), path))

    def miss_free_size(self, needed: Set[str],
                       sizes: SizeFunction) -> Tuple[int, Set[str]]:
        """Section 5.1.2's recipe over :meth:`ranking`, one file at a
        time, as LRU's is."""
        return ranked_prefix_size(zip(self.ranking()), needed, sizes)
