"""Analyzer wall-clock over the repository's own ``src/`` tree.

PR 10 made every lint run build per-function CFGs and a project call
graph on top of the per-file passes, so the analyzer's own runtime is
now a tracked quantity: this benchmark times the exact configuration
CI's hard gate runs (every rule, inline suppressions only) and records
it as ``BENCH_lint.json`` for the trajectory gate.  The run must also
come back clean -- a finding here means the gate is red, which is a
correctness failure worth catching in the benchmark lane too.

The workload is the real source tree (~100 files), so there is no
smoke-mode shrink; ``REPRO_BENCH_SMOKE`` only tags the record.
"""

import os
import time

from benchmarks.perf_record import write_record
from repro.lint import FILE_RULES, PROJECT_RULES, run_lint

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def test_lint_full_pass(benchmark, output_dir):
    def lint_src():
        return run_lint([SRC])

    start = time.perf_counter()
    result = benchmark.pedantic(lint_src, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start

    assert result.parse_errors == []
    assert result.findings == []
    assert result.files_checked > 50

    record = write_record(
        output_dir, "lint", elapsed, result.files_checked,
        extra={"findings": len(result.findings),
               "rules": ",".join(sorted(
                   rule.id for rule in FILE_RULES + PROJECT_RULES))})
    print(f"lint: {result.files_checked} files in {elapsed:.2f}s "
          f"({record['throughput_per_second']:,.1f} files/s)")
