"""Run one workload of the end-to-end benchmark (see BENCHMARK.json).

    python3 benchmarks/e2e/run.py --workload figure2 --seed 1 \\
        --seconds 12 --trace 0

Runs from the repository root with the program imported from
``src/``; exits non-zero, printing no result, when that source tree is
missing.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "src")


def _bootstrap() -> None:
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        sys.exit(f"error: program source not found under {SOURCE}")
    sys.path[:0] = [SOURCE, ROOT]
    import repro
    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        sys.exit(f"error: imported repro from {repro.__file__}, "
                 f"not from {SOURCE}")


if __name__ == "__main__":
    _bootstrap()
    from benchmarks.e2e.harness import main
    sys.exit(main())
