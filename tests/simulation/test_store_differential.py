"""Property: a restored grid equals a freshly computed one.

A randomized (kind x seed x period x investigators) grid restored
from the checkpoint store must hand back byte-identical canonical
payloads and render byte-identical report text to the same grid
computed fresh -- the store is a persistence mechanism, never an
influence on results.  Each distinct cell is simulated once and
cached at module scope; hypothesis then varies which cells form the
grid, and the store restores it without recomputing.
"""

import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.figures import render_figure2
from repro.analysis.tables import render_table3
from repro.simulation.runner import (
    DAY,
    WEEK,
    RunStats,
    ShardOutcome,
    ShardSpec,
    execute_shard,
    run_shards,
)
from repro.simulation.serde import (
    canonical_bytes,
    comparable_data,
    result_to_data,
)
from repro.simulation.store import SqliteStore

#: Every cell hypothesis may put in a grid.  One cheap machine, short
#: traces; diversity comes from period, seed, investigators and kind.
CELL_POOL = [
    ShardSpec("missfree", "E", 1, 4.0, window_seconds=DAY),
    ShardSpec("missfree", "E", 1, 4.0, window_seconds=WEEK),
    ShardSpec("missfree", "E", 2, 4.0, window_seconds=DAY),
    ShardSpec("missfree", "E", 1, 4.0, window_seconds=DAY,
              use_investigators=True),
    ShardSpec("live", "E", 1, 4.0),
    ShardSpec("live", "E", 2, 4.0),
]

_FRESH = {}


def fresh_outcome(spec):
    """One cell computed fresh, simulated at most once."""
    if spec.shard_id not in _FRESH:
        _FRESH[spec.shard_id] = ShardOutcome(spec=spec,
                                             result=execute_shard(spec))
    return _FRESH[spec.shard_id]


def payloads(outcomes):
    """Each outcome's canonical bytes, wall-clock metrics stripped."""
    return [canonical_bytes(comparable_data(o.result)) for o in outcomes]


def render_report_text(outcomes):
    """The report fragments a grid contributes to (figure 2, table 3)."""
    parts = []
    missfree = [o.result for o in outcomes if o.spec.kind == "missfree"]
    live = [o.result for o in outcomes if o.spec.kind == "live"]
    if missfree:
        parts.append(render_figure2(missfree))
    if live:
        parts.append(render_table3(live))
    return "\n".join(parts)


def restore(grid):
    """Seed a fresh store with the grid's results, resume from it."""
    root = tempfile.mkdtemp(prefix="store-diff-")
    try:
        with SqliteStore(root) as store:
            for spec in grid:
                store.put(spec, result_to_data(fresh_outcome(spec).result),
                          elapsed_seconds=0.0)
        stats = RunStats()
        outcomes = run_shards(grid, jobs=1, checkpoint_dir=root,
                              resume=True, stats=stats)
        # Nothing recomputed: what follows compares pure store
        # round-trips, not fresh simulations.
        assert stats.shards_run == 0
        assert stats.shards_from_checkpoint == len(grid)
        assert stats.corrupt_discarded == 0
        return outcomes
    finally:
        shutil.rmtree(root, ignore_errors=True)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(indices=st.sets(st.integers(min_value=0,
                                   max_value=len(CELL_POOL) - 1),
                       min_size=1))
def test_restored_grid_equals_fresh_grid(indices):
    grid = [CELL_POOL[i] for i in sorted(indices)]
    fresh = [fresh_outcome(spec) for spec in grid]
    restored = restore(grid)
    assert [o.spec for o in restored] == grid
    assert payloads(restored) == payloads(fresh)
    assert render_report_text(restored) == render_report_text(fresh)


def test_computed_and_restored_runs_render_identically():
    """End to end: a run that computes and checkpoints a grid renders
    the same bytes as the resumed run that restores all of it.

    The hypothesis property above isolates the store round-trip; this
    pins the full path -- worker pool, checkpoint writes, restore,
    render -- for one fixed three-cell grid.
    """
    grid = [CELL_POOL[0], CELL_POOL[1], CELL_POOL[4]]
    root = tempfile.mkdtemp(prefix="store-e2e-")
    try:
        computed = run_shards(grid, jobs=2, checkpoint_dir=root)
        restored = run_shards(grid, jobs=2, checkpoint_dir=root,
                              resume=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    assert all(o.from_checkpoint for o in restored)
    assert payloads(restored) == payloads(computed)
    assert render_report_text(restored) == render_report_text(computed)
