"""Baseline hoarding managers the paper compares against.

* :mod:`repro.baselines.lru` -- strict LRU hoarding (the early systems
  [1, 9]) plus the exact miss-free-hoard-size recipe of section 5.1.2;
* :mod:`repro.baselines.coda_priority` -- the CODA-inspired priority
  formula, read as bounded-age LRU with no hand-assigned offsets
  (section 5.1.2 notes it performed worse than LRU without ongoing
  hand management);
* :mod:`repro.baselines.optimal` -- the clairvoyant working-set oracle,
  the lower bound every hoard size is measured against;
* :mod:`repro.baselines.spy_utility` -- Tait et al.'s SPY UTILITY
  (section 6.3), the only other automated hoarder: unions of
  process-execution access trees, without SEER's semantic clustering.
"""

from repro.baselines.coda_priority import CodaPriorityManager
from repro.baselines.lru import lru_miss_free_size
from repro.baselines.optimal import working_set, working_set_size
from repro.baselines.spy_utility import AccessTree, SpyUtilityManager

__all__ = [
    "AccessTree",
    "CodaPriorityManager",
    "SpyUtilityManager",
    "lru_miss_free_size",
    "working_set",
    "working_set_size",
]
