"""Strict LRU hoarding and its miss-free hoard size.

Early disconnected-operation systems simply hoarded the most recently
referenced files.  Section 5.1.2 gives the exact recipe for the LRU
miss-free hoard size, computed by :func:`lru_miss_free_size`:

1. sort all files by last reference time prior to the disconnection,
   most recent first (:func:`lru_ranking`);
2. mark each file that was referenced during the period;
3. locate the last marked file in the list;
4. sum the sizes of all files from the head of the list through that
   file.

Steps 2-4 are :func:`repro.core.hoard.ranked_prefix_size` walking the
ranking one file at a time, the walk every policy's size shares.
"""

from __future__ import annotations

from typing import List, Mapping, Set, Tuple

from repro.core.hoard import SizeFunction, ranked_prefix_size


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
    # zip() hands the walk each file as a group of one.
    return ranked_prefix_size(zip(lru_ranking(recency)), needed, sizes)
