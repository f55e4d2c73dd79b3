"""The implementations ``src/`` replaced, kept as test oracles.

``repro.core`` ships one correlator engine, the fused
:class:`~repro.core.arena.ColumnarEngine` over the interned
:class:`~repro.core.arena.NeighborArena`, and one clustering pass over
the arena's fids, :class:`~repro.core.clustering.SharedNeighborPass`.
This package keeps the direct transcriptions of the paper they
replaced, so each can be checked against it:

* :mod:`tests.oracle.distance` -- the three semantic distances of
  section 3.1.1: Definition 3 as one ``LifetimeDistanceCalculator``
  per process stream, and Definitions 1 and 2, which no shipped code
  uses (``temporal_distances``, ``SequenceDistanceCalculator``), with
  the ``Reference``/``RefKind`` events and the ``opens`` helper they
  consume;
* :mod:`tests.oracle.neighbors` -- the bounded neighbor tables of
  section 3.1.3 as ``NeighborTable`` objects in a ``NeighborStore``;
* :mod:`tests.oracle.clustering` -- the path-keyed Jarvis-Patrick
  pass ``SharedNeighborClustering`` (sections 3.3.2-3.3.3), with the
  test-only ``shared_count_override`` and ``directory_distance=``
  hooks and no count reuse, and ``OracleClustering``, which serves a
  correlator's builds with it;
* :mod:`tests.oracle.engine` -- ``ReferenceEngine``, which wires the
  distance and neighbor layers together, and ``oracle_correlator``, a
  production :class:`~repro.core.correlator.Correlator` running on
  them and on the path-keyed pass;
* :mod:`tests.oracle.bootstrap` -- the population report's
  percentile-bootstrap loop, one ``random.choices`` call per resample,
  which the numpy resampler
  :func:`~repro.analysis.population.bootstrap_band` replaced;
* :mod:`tests.oracle.service` -- the service daemon's reduced
  assembly, a bare correlator and hoard manager, which a tenant's
  :class:`~repro.core.seer.Seer` replaced
  (``tests/service/test_tenant_seer.py``).

The differential suite ``tests/core/test_equivalence.py`` compares the
shipped engine and pass with these, and
``tests/analysis/test_population_analysis.py`` the resampler with its
loop; ``tests/oracle/test_isolation.py`` keeps production code from
importing anything here.
"""
