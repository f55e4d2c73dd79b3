"""Property test: lookback pruning is invisible to the neighbor store.

An entry aged past the lookback window (and not currently open) can
never again emit an in-window distance -- ages only grow, re-opens
re-key the file, and stream merges preserve ages.  Pruning such entries
(the oracle's ``prune=True``, what the shipped engine always does)
must therefore produce exactly the same neighbor tables as the
unpruned historical behaviour, as long as the compensation emission is
disabled in both runs so the comparison isolates pruning itself.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.correlator import Action, ObservedReference
from repro.core.parameters import SeerParameters
from tests.oracle.engine import oracle_correlator

PATHS = [f"/f{i}" for i in range(8)]
PIDS = [1, 2, 3]

#: At least 30 events: hypothesis favours short lists, and a stream of
#: a handful of events never ages an entry out of the window, so
#: nothing would be pruned and the property would hold vacuously.
_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(PIDS),
        st.sampled_from([Action.OPEN, Action.CLOSE, Action.POINT,
                         Action.STAT, Action.DELETE, Action.RENAME,
                         Action.FORK, Action.EXIT]),
        st.sampled_from(PATHS),
        st.sampled_from(PATHS),
    ),
    min_size=30, max_size=120)


def _run(events, prune):
    parameters = SeerParameters(lookback_window=4, delete_delay=3)
    correlator = oracle_correlator(parameters, prune=prune, compensate=False)
    for seq, (pid, action, path, path2) in enumerate(events, start=1):
        ppid = 1 if action is Action.FORK else 0
        correlator.handle(ObservedReference(
            seq=seq, time=float(seq), pid=pid, action=action,
            path=path, path2=path2, ppid=ppid))
    return correlator


def _table_state(correlator):
    state = {}
    for file in correlator.store.files():
        table = correlator.store.get(file)
        state[file] = {neighbor: (summary.count, summary.mean(),
                                  summary.last_update)
                       for neighbor in table.neighbors()
                       for summary in [table.summary(neighbor)]}
    return state


@settings(max_examples=60, deadline=None)
@given(events=_EVENTS)
def test_pruned_run_matches_unpruned_seed(events):
    pruned = _run(events, prune=True)
    unpruned = _run(events, prune=False)
    assert _table_state(pruned) == _table_state(unpruned)
    assert pruned.recency_times() == unpruned.recency_times()
    assert (pruned.store.marked_for_deletion
            == unpruned.store.marked_for_deletion)


@settings(max_examples=30, deadline=None)
@given(events=_EVENTS, seed=st.integers(min_value=0, max_value=5))
def test_pruned_run_matches_with_random_interleaving(events, seed):
    # Shuffle pids deterministically to stress fork/exit merge paths.
    rng = random.Random(seed)
    shuffled = [(rng.choice(PIDS), action, path, path2)
                for (_, action, path, path2) in events]
    pruned = _run(shuffled, prune=True)
    unpruned = _run(shuffled, prune=False)
    assert _table_state(pruned) == _table_state(unpruned)


def test_seed_mode_drops_over_window_pairs():
    """Seed mode (no pruning, no compensation) loses over-window pairs;
    the shipped engine records them as the compensation distance
    (``tests/core/test_correlator.py::TestCompensation``)."""
    correlator = oracle_correlator(
        SeerParameters(lookback_window=3, compensation_distance=7,
                       delete_delay=3),
        prune=False, compensate=False)
    for seq, path in enumerate(["/a", "/x0", "/x1", "/x2", "/x3"], 1):
        correlator.handle(ObservedReference(
            seq=seq, time=float(seq), pid=1, action=Action.POINT,
            path=path))
    assert correlator.store.get("/a").distance_to("/x2") == \
        pytest.approx(3.0)
    assert correlator.store.get("/a").distance_to("/x3") == float("inf")
