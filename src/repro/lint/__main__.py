"""Command line for the analyzer: ``python -m repro.lint [paths]``.

Exit status: 0 when no finding survives suppression, 1 when findings
remain, 2 on usage errors (an unknown path or rule id, a bad --jobs).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.lint.engine import LintConfig, render_json, render_text, run_lint
from repro.lint.concurrency import PROJECT_RULES
from repro.lint.rules import FILE_RULES


def _list_rules() -> str:
    lines = ["repro.lint rules:"]
    for rule in list(FILE_RULES) + list(PROJECT_RULES):
        lines.append(f"  {rule.id}  {rule.name}")
        lines.append(f"         {rule.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based determinism & invariant analyzer "
                    "(see docs/static-analysis.md)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for parsing and the "
                             "per-file rules (default: 1; finding "
                             "order is identical at any job count)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="also print suppressed findings")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    select = None
    if args.select:
        select = [token.strip() for token in args.select.split(",")
                  if token.strip()]

    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        result = run_lint(args.paths, config=LintConfig(), select=select,
                          jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
