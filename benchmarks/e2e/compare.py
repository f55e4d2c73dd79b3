"""Compare two sets of benchmark documents, metric by metric.

Each side is a list of documents written by ``python -m benchmarks.e2e
run`` -- one per run, runs of the two sides paired in order (run them
alternately).  For every workload x metric the table gives each side's
median and quartiles, and for the end-to-end metrics a verdict:

* **better** -- the change wins at least 9 of every 10 pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the base's quartiles;
* **unresolved** -- otherwise, when either side's spread (quartile
  distance over median) exceeds the metric's bound, unless every run
  of the change beats every run of the base;
* **worse** -- the change's median is worse by more than the bound;
* **same** -- none of the above.

Per-layer metrics carry no bound and get no verdict.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from benchmarks.e2e.stats import median, quartiles, relative_spread

Values = Dict[Tuple[str, str], List[float]]


def collect(documents: Sequence[Mapping[str, Any]]) -> Values:
    """(workload, metric) -> values, in document order."""
    values: Values = {}
    for document in documents:
        for workload, result in document["workloads"].items():
            for section in ("metrics", "per_layer"):
                for name, metric in result.get(section, {}).items():
                    values.setdefault((workload, name), []).append(
                        float(metric["value"]))
    return values


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    low, _, high = quartiles(base)
    gain = sign * (median(change) - median(base))
    if pairs and wins >= 0.9 * len(pairs) and gain > high - low:
        return "better"
    spread = max(relative_spread(base), relative_spread(change))
    dominates = min(sign * c for c in change) > max(sign * b for b in base)
    if spread > bound and not dominates:
        return "unresolved"
    if -gain > bound * abs(median(base)):
        return "worse"
    return "same"


def _cell(values: Sequence[float]) -> str:
    low, mid, high = quartiles(values)
    return f"{mid:12.5g} [{low:.4g}, {high:.4g}]"


def table(base_docs: Sequence[Mapping[str, Any]],
          change_docs: Sequence[Mapping[str, Any]],
          spec: Mapping[str, Any]) -> str:
    bounded = {entry["name"]: entry for entry in spec["end_to_end"]}
    base, change = collect(base_docs), collect(change_docs)
    lines = [f"{'workload':<11} {'metric':<26} {'base median [q1, q3]':>36} "
             f"{'change median [q1, q3]':>36}  verdict",
             f"{'':<11} {'':<26} {'(spread)':>36} {'(spread)':>36}"]
    workloads = sorted({workload for workload, _ in base})
    for workload in workloads:
        names = [name for w, name in base if w == workload]
        names.sort(key=lambda name: (name not in bounded, name))
        for name in names:
            b = base[(workload, name)]
            c = change.get((workload, name), [])
            entry: Optional[Mapping[str, Any]] = bounded.get(name)
            judged = "-"
            if entry is not None and c:
                judged = verdict(b, c, entry["better"], entry["bound"])
            right = _cell(c) if c else "(missing)"
            lines.append(f"{workload:<11} {name:<26} {_cell(b):>36} "
                         f"{right:>36}  {judged}")
            if entry is not None:
                spreads = (f"{relative_spread(b):.1%}",
                           f"{relative_spread(c):.1%}" if c else "")
                lines.append(f"{'':<11} {'':<26} {spreads[0]:>36} "
                             f"{spreads[1]:>36}")
    return "\n".join(lines)


def load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            documents.append(json.load(stream))
    return documents
