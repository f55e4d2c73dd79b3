"""Property: the parallel runner is indistinguishable from the serial
path for every pool size, even across a mid-sweep kill and resume.

The grid here is small (one cheap machine, a few days) so hypothesis
can afford to rerun it with different worker counts and different
simulated crash points; cell *values* are compared through the
canonical serialized form with wall-clock instrumentation stripped.
"""

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation.runner import (
    DAY,
    WEEK,
    RunStats,
    ShardSpec,
    run_shards,
)
from repro.simulation.serde import comparable_data

from tests.simulation.checkpoints import delete_rows, tamper_rows

GRID = [
    ShardSpec("missfree", "E", 1, 5.0, window_seconds=DAY),
    ShardSpec("missfree", "E", 1, 5.0, window_seconds=WEEK),
    ShardSpec("live", "E", 1, 5.0),
]


@pytest.fixture(scope="module")
def baseline():
    """The serial ground truth, computed once."""
    return [comparable_data(o.result) for o in run_shards(GRID, jobs=1)]


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(jobs=st.integers(min_value=1, max_value=4),
       killed=st.sets(st.integers(min_value=0, max_value=len(GRID) - 1)),
       corrupted=st.sets(st.integers(min_value=0, max_value=len(GRID) - 1)))
def test_any_jobs_value_matches_serial_with_kill_and_resume(
        baseline, jobs, killed, corrupted):
    checkpoint_dir = tempfile.mkdtemp(prefix="runner-prop-")
    try:
        # 1. A full sweep at this worker count is cell-for-cell
        #    identical to the serial path.
        outcomes = run_shards(GRID, jobs=jobs, checkpoint_dir=checkpoint_dir)
        assert [comparable_data(o.result) for o in outcomes] == baseline

        # 2. Simulate a mid-sweep kill: some cells never checkpointed,
        #    others were mangled (checkpoints are committed atomically,
        #    but a resume must also survive a torn payload).
        corrupted = corrupted - killed
        delete_rows(checkpoint_dir, [GRID[i].shard_id for i in killed])
        tamper_rows(checkpoint_dir, [GRID[i].shard_id for i in corrupted])
        stats = RunStats()
        resumed = run_shards(GRID, jobs=jobs, checkpoint_dir=checkpoint_dir,
                             resume=True, stats=stats)

        # 3. The resumed sweep recomputed exactly the lost cells...
        assert stats.shards_run == len(killed) + len(corrupted)
        assert stats.shards_from_checkpoint == \
            len(GRID) - len(killed) - len(corrupted)
        assert [o.from_checkpoint for o in resumed] == \
            [i not in killed and i not in corrupted
             for i in range(len(GRID))]

        # 4. ...and still matches the serial ground truth everywhere.
        assert [comparable_data(o.result) for o in resumed] == baseline
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
