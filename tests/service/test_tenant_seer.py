"""A tenant's Seer answers as the reduced assembly it replaced.

The daemon feeds a tenant's :class:`~repro.core.seer.Seer` through its
correlator alone, so the Seer's observer holds no frequent, critical
or non-file designations: ``Seer.build_clusters`` excludes nothing and
``Seer.build_hoard`` charges no always-hoard file.  Its fills must be
byte-identical to those of the bare correlator and hoard manager a
tenant held before (``tests/oracle/service.py``), at every point of a
stream, including repeated builds on the same state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlator import Correlator
from repro.observer import Observer
from repro.service.tenant import hoard_fill_payload, replay_references
from repro.simulation.serde import canonical_bytes
from repro.workload import generate_machine_trace, machine_profile

from tests.oracle.service import reduced_hoard_fill_payload
from tests.service.helpers import references_from_stream
from tests.service.test_differential import SIZES, events


def assert_same_fills(references, cuts, budget, sizes, default_size=0):
    """Fill both sides at each cut of *references*, fed incrementally."""
    seer, correlator = None, Correlator()
    start = 0
    for cut in [*cuts, len(references)]:
        seer = replay_references(references[start:cut], seer=seer)
        for reference in references[start:cut]:
            correlator.handle(reference)
        start = cut
        ours = hoard_fill_payload(seer, budget, sizes, default_size)
        oracle = reduced_hoard_fill_payload(correlator, budget, sizes,
                                            default_size)
        assert canonical_bytes(ours) == canonical_bytes(oracle)


@settings(max_examples=60, deadline=None)
@given(stream=st.lists(events(), min_size=1, max_size=120),
       cuts=st.lists(st.integers(min_value=0, max_value=120), max_size=3),
       budget=st.integers(min_value=0, max_value=1_500))
def test_tenant_seer_matches_reduced_assembly(stream, cuts, budget):
    references = references_from_stream(stream)
    assert_same_fills(references, sorted(cut % (len(references) + 1)
                                         for cut in cuts), budget, SIZES)


def test_machine_stream_matches_reduced_assembly():
    """Machine C's week as its client's observer forwards it."""
    trace = generate_machine_trace(machine_profile("C"), seed=3, days=7.0)
    collected = []
    observer = Observer(handler=collected.append, filesystem=trace.kernel.fs,
                        process_table=trace.kernel.processes)
    for record in trace.records:
        observer.handle_record(record)
    references = [reference._replace(seq=seq)
                  for seq, reference in enumerate(collected, 1)]
    quarter = len(references) // 4
    assert_same_fills(references, [quarter, 2 * quarter, 3 * quarter],
                      budget=50_000, sizes=None, default_size=4096)
