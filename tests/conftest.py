"""Suite-wide fixtures.

Every ``Metrics`` instance created while a test runs is strict by
default: recording a name that ``repro.observability.registry`` does
not declare raises ``UnregisteredMetricError``.  Production code paths
therefore cannot introduce an off-registry metric without a test
failing; this fixture is the metric registry's one enforcement point.
Tests that exercise the ``Metrics`` primitive itself with throwaway
names opt out with ``Metrics(strict=False)``.
"""

import pytest

from repro.observability import Metrics


@pytest.fixture(autouse=True)
def strict_metrics():
    previous = Metrics.strict_default
    Metrics.strict_default = True
    try:
        yield
    finally:
        Metrics.strict_default = previous
