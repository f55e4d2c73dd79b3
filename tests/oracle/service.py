"""The daemon's reduced SEER assembly, kept as the tenant Seer's oracle.

A tenant of :mod:`repro.service.tenant` once held a bare
:class:`~repro.core.correlator.Correlator` and
:class:`~repro.core.hoard.HoardManager` and answered ``hoard_fill``
with ``Correlator.build_clusters()`` -- no relations, no exclusions --
and ``HoardManager.build`` with no always-hoard set.  It now holds a
:class:`~repro.core.seer.Seer` fed through its correlator alone, whose
observer holds no frequent, critical or non-file designations, so
``Seer.build_clusters`` and ``Seer.build_hoard`` must give the same
answer.  ``tests/service/test_tenant_seer.py`` checks that they do.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.core.correlator import Correlator
from repro.core.hoard import HoardManager
from repro.service import protocol
from repro.service.tenant import size_function_from


def reduced_hoard_fill_payload(correlator: Correlator, budget: int,
                               sizes: Optional[Mapping[str, int]] = None,
                               default_size: int = 0) -> Dict[str, Any]:
    """Cluster, rank and fill over the correlator alone."""
    clusters = correlator.build_clusters()
    selection = HoardManager().build(
        clusters, size_function_from(sizes, default_size),
        correlator.recency(), budget)
    return protocol.selection_to_data(selection, clusters)
