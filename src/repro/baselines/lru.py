"""Strict LRU hoarding and its miss-free hoard size.

Early disconnected-operation systems simply hoarded the most recently
referenced files.  Section 5.1.2 gives the exact recipe for the LRU
miss-free hoard size, implemented verbatim in
:func:`lru_miss_free_size`:

1. sort all files by last reference time prior to the disconnection,
   most recent first;
2. mark each file that was referenced during the period;
3. locate the last marked file in the list;
4. sum the sizes of all files from the head of the list through that
   file.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Set, Tuple

SizeFunction = Callable[[str], int]


def lru_ranking(recency: Mapping[str, float]) -> List[str]:
    """Files sorted most-recently-referenced first (ties by name)."""
    return sorted(recency, key=lambda path: (-recency[path], path))


def lru_miss_free_size(recency: Mapping[str, float], needed: Set[str],
                       sizes: SizeFunction) -> Tuple[int, Set[str]]:
    """The section 5.1.2 recipe.

    *recency* maps each file known before the disconnection to its last
    reference time; *needed* is the set of files referenced during the
    disconnection.  Returns ``(size, uncoverable)`` where *uncoverable*
    are needed files absent from the recency list (files no hoarding
    algorithm could have known about).
    """
    ranking = lru_ranking(recency)
    known = set(ranking)
    marked = needed & known
    if not marked:
        return 0, needed - known
    last_marked_index = max(index for index, path in enumerate(ranking)
                            if path in marked)
    prefix = ranking[:last_marked_index + 1]
    return sum(sizes(path) for path in prefix), needed - known
