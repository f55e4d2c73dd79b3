"""Checkpoint store throughput.

The sqlite store commits a whole batch of cells in one transaction.
This benchmark pushes an N-cell synthetic grid through it, records
write, restore and compaction cost as ``BENCH_store_*.json`` for the
trajectory gate, and pins the structural claim behind the store: O(1)
files on disk regardless of grid size.

``REPRO_BENCH_SMOKE=1`` shrinks N for CI smoke runs.
"""

import os
import shutil
import tempfile
import time

from benchmarks.conftest import DAY
from benchmarks.perf_record import write_record
from repro.simulation.runner import ShardSpec
from repro.simulation.store import SqliteStore

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Cells pushed through the store.  The payload is synthetic (the
#: store never looks inside the result dict), so the grid can be far
#: larger than any simulation benchmark could afford.
N_CELLS = 400 if SMOKE else 4000


def grid():
    return [ShardSpec("missfree", "E", seed, 5.0, window_seconds=DAY)
            for seed in range(N_CELLS)]


def payload(seed):
    return {"type": "missfree",
            "windows": [{"seed": seed, "seer": 1.0 + seed, "lru": 2.0}]}


def test_store_write_throughput(benchmark, output_dir):
    specs = grid()
    root = tempfile.mkdtemp(prefix="bench-store-")
    try:
        def write_all():
            with SqliteStore(root) as store:
                for seed, spec in enumerate(specs):
                    store.put(spec, payload(seed), elapsed_seconds=0.0)
                return store.bytes_on_disk()

        start = time.perf_counter()
        bytes_on_disk = benchmark.pedantic(write_all, rounds=1,
                                           iterations=1)
        elapsed = time.perf_counter() - start

        files = len(os.listdir(root))
        record = write_record(
            output_dir, "store_write_sqlite", elapsed, N_CELLS,
            extra={"files_on_disk": files, "bytes_on_disk": bytes_on_disk})
        print(f"store_write_sqlite: "
              f"{record['throughput_per_second']:,.0f} cells/s, "
              f"{files} files, {bytes_on_disk:,d} bytes")

        # The structural claim: O(1) files, not one per cell.
        assert files == 1
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_store_restore_throughput(benchmark, output_dir):
    specs = grid()
    root = tempfile.mkdtemp(prefix="bench-store-")
    try:
        with SqliteStore(root) as store:
            for seed, spec in enumerate(specs):
                store.put(spec, payload(seed), elapsed_seconds=0.0)

        def restore_all():
            with SqliteStore(root) as store:
                restored = sum(1 for spec in specs
                               if store.get(spec) is not None)
                assert store.corrupt_discarded == 0
                return restored

        start = time.perf_counter()
        restored = benchmark.pedantic(restore_all, rounds=1, iterations=1)
        elapsed = time.perf_counter() - start
        assert restored == N_CELLS

        record = write_record(output_dir, "store_restore_sqlite",
                              elapsed, N_CELLS)
        print(f"store_restore_sqlite: "
              f"{record['throughput_per_second']:,.0f} cells/s")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_store_compaction_reclaims(benchmark, output_dir):
    """Compacting a 2N-cell store down to an N-cell grid halves the
    rows and must not grow the file."""
    specs = grid()
    stale = [ShardSpec("missfree", "E", seed, 5.0, window_seconds=2 * DAY)
             for seed in range(N_CELLS)]
    root = tempfile.mkdtemp(prefix="bench-store-compact-")
    try:
        with SqliteStore(root) as store:
            for seed, spec in enumerate(specs + stale):
                store.put(spec, payload(seed), elapsed_seconds=0.0)

            start = time.perf_counter()
            stats = benchmark.pedantic(
                lambda: store.compact(keep=[s.shard_id for s in specs]),
                rounds=1, iterations=1)
            elapsed = time.perf_counter() - start

        assert stats.removed_stale == N_CELLS
        assert stats.bytes_after <= stats.bytes_before
        write_record(output_dir, "store_compact_sqlite", elapsed, N_CELLS,
                     extra={"bytes_before": stats.bytes_before,
                            "bytes_after": stats.bytes_after})
    finally:
        shutil.rmtree(root, ignore_errors=True)
