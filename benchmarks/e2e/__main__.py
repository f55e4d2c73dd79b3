"""``python -m benchmarks.e2e run|compare`` (run from the repository root).

``run`` runs every workload (or those named with ``--workload``), each
in a fresh ``run.py`` process, and prints one JSON document: every
end-to-end metric with its unit, direction and bound, the error rate
with its base, and with ``--trace`` each workload's per-layer metrics
from a second, traced process.  The runs' own reports -- stage tables,
the paper's section 5.3 figures -- go to standard error.

``compare BASE.json... -- CHANGE.json...`` tabulates two sets of such
documents (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e import compare
from benchmarks.e2e.harness import ROOT, SCALES, load_spec

RUN_PY = ROOT / "benchmarks" / "e2e" / "run.py"
RUN_TIMEOUT = 900.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str) -> Dict[str, Any]:
    """One fresh ``run.py`` process; its result line, parsed."""
    command = [sys.executable, str(RUN_PY), "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}",
               "--trace", "1" if trace else "0", "--scale", scale]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=RUN_TIMEOUT, check=False)
    lines = completed.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} (trace={int(trace)}) exited with "
                           f"{completed.returncode}")
    result: Dict[str, Any] = json.loads(lines[-1])
    return result


def run_document(seed: int, workloads: Sequence[str], seconds: float,
                 trace: bool, scale: str) -> Dict[str, Any]:
    spec = load_spec()
    declared = {entry["name"]: entry for entry in spec["end_to_end"]}
    document: Dict[str, Any] = {"seed": seed, "seconds": seconds,
                                "scale": scale, "workloads": {}}
    for workload in workloads:
        print(f"== {workload}", file=sys.stderr)
        result = run_workload(workload, seed, seconds, False, scale)
        attempted, failed = result["attempted"], result["failed"]
        entry: Dict[str, Any] = {"metrics": {
            name: {**metric, "better": declared[name]["better"],
                   "bound": declared[name]["bound"]}
            for name, metric in result["metrics"].items()}}
        if trace:
            traced = run_workload(workload, seed, seconds, True, scale)
            attempted += traced["attempted"]
            failed += traced["failed"]
            entry["per_layer"] = traced["metrics"]
        entry.update({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "error_rate": {"value": failed / attempted,
                                     "base": attempted}})
        document["workloads"][workload] = entry
    return document


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        rest = argv[1:]
        if "--" not in rest:
            print("usage: compare BASE.json... -- CHANGE.json...",
                  file=sys.stderr)
            return 2
        split = rest.index("--")
        print(compare.table(compare.load(rest[:split]),
                            compare.load(rest[split + 1:]), load_spec()))
        return 0

    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, print metrics")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload", action="append", choices=names,
                     help="repeatable; default: every workload")
    run.add_argument("--trace", action="store_true",
                     help="also run each workload traced (per-layer metrics)")
    run.add_argument("--seconds", type=float, default=spec["run_seconds"])
    run.add_argument("--scale", choices=SCALES, default="full")
    commands.add_parser("compare", help="BASE.json... -- CHANGE.json...")
    args = parser.parse_args(argv)
    document = run_document(args.seed, args.workload or names, args.seconds,
                            args.trace, args.scale)
    print(json.dumps(document, indent=1))
    return 0 if all(entry["correct"]
                    for entry in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
