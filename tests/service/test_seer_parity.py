"""The daemon's build against SEER's own, machine by machine.

A client's observer classifies each reference and streams what it
forwards to the daemon, where a tenant's Seer is fed through its
correlator alone.  The client's verdicts do not cross the wire: the
§4.2 frequent files and the §4.2-4.3 always-hoard set stay on the
client.  So the daemon clusters without excluding the frequent files,
and its fill charges no always-hoard file.  These tests compare the
daemon's decision core, fed the observer's stream, with a replay
:class:`~repro.core.seer.Seer` fed the trace's records, under the same
parameters, control file, budget and sizes.

Where the two differ the test is a strict ``xfail`` naming ROADMAP
item 3, whose change puts the verdicts on the wire and removes the
markers.  Measured on 7-day traces at trace seed 1: machines A, F, G
and I have 26-46 frequent files each, and their largest replay
cluster has 10, 60, 40 and 23 files against the daemon's 44, 113, 97
and 71.  Every machine has 2-49 always-hoard files.
"""

import pytest

from repro.core.parameters import DEFAULT_PARAMETERS
from repro.core.seer import Seer
from repro.service.protocol import selection_to_data
from repro.service.tenant import (
    batch_hoard_fill,
    replay_references,
    size_function_from,
)
from repro.simulation.live import scaled_hoard_budget
from repro.simulation.missfree import make_size_function
from repro.simulation.serde import canonical_bytes
from repro.workload import generate_machine_trace, machine_profile

MACHINES = "ABCDEFGHI"
#: Machines whose frequent files bridge the daemon's clusters.
BRIDGED = "AFGI"

CLUSTERS_DIFFER = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: the client's frequent-file "
    "verdicts do not reach the daemon, so it clusters them")
FILLS_DIFFER = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: the client's always-hoard "
    "files never reach the daemon, so its fill charges none")


def observe(machine):
    """One observation of *machine*'s week: the replay Seer, the stream
    its observer forwarded (seq-stamped for the wire), the budget, and
    the size of every path either side may size."""
    trace = generate_machine_trace(machine_profile(machine), seed=1,
                                   days=7.0)
    seer = Seer(kernel=trace.kernel, parameters=DEFAULT_PARAMETERS,
                attach=False)
    forwarded = []
    handle = seer.correlator.handle

    def tee(reference):
        forwarded.append(reference)
        handle(reference)

    # The Seer's observer looks the correlator's handle up per call.
    seer.correlator.handle = tee
    for record in trace.records:
        seer.observer.handle_record(record)
    del seer.correlator.handle
    stream = [reference._replace(seq=seq)
              for seq, reference in enumerate(forwarded, 1)]
    size = make_size_function(trace, 0)
    sizes = {path: size(path) for path in
             seer.correlator.known_files() | seer.always_hoard_paths()}
    return seer, stream, scaled_hoard_budget(trace), sizes


@pytest.fixture(scope="module")
def observed():
    return {machine: observe(machine) for machine in MACHINES}


def _marked(machines, mark):
    return [pytest.param(machine, marks=mark) if machine in machines
            else machine for machine in MACHINES]


@pytest.mark.parametrize("machine", _marked(BRIDGED, CLUSTERS_DIFFER))
def test_daemon_clusters_match_seer(observed, machine):
    seer, stream, _, _ = observed[machine]
    daemon = replay_references(stream, DEFAULT_PARAMETERS).build_clusters()
    assert daemon.as_sets() == seer.build_clusters().as_sets()


@pytest.mark.parametrize("machine", _marked(MACHINES, FILLS_DIFFER))
def test_daemon_fill_matches_seer(observed, machine):
    seer, stream, budget, sizes = observed[machine]
    clusters = seer.build_clusters()
    expected = selection_to_data(
        seer.build_hoard(budget, size_function_from(sizes, 0), clusters),
        clusters)
    daemon = batch_hoard_fill(stream, budget, DEFAULT_PARAMETERS,
                              sizes=sizes)
    assert canonical_bytes(daemon) == canonical_bytes(expected)
