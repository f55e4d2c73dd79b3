"""The paper transcription of SEER's correlator, kept as a test oracle.

``repro.core`` ships one correlator engine: the fused
:class:`~repro.core.arena.ColumnarEngine` over the interned
:class:`~repro.core.arena.NeighborArena`.  This package keeps the
direct transcription of the paper it replaced, so the fused engine
can be checked against it:

* :mod:`tests.oracle.distance` -- Definition 3 (section 3.1.1), one
  ``LifetimeDistanceCalculator`` per process stream;
* :mod:`tests.oracle.neighbors` -- the bounded neighbor tables of
  section 3.1.3 as ``NeighborTable`` objects in a ``NeighborStore``;
* :mod:`tests.oracle.engine` -- ``ReferenceEngine``, which wires the
  two together, and ``oracle_correlator``, a production
  :class:`~repro.core.correlator.Correlator` running on them.

The differential suite ``tests/core/test_equivalence.py`` compares the
two engines; ``tests/oracle/test_isolation.py`` keeps production code
from importing anything here.
"""
