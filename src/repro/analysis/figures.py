"""ASCII renderings of Figures 2 and 3.

Figure 2 stacks, for each machine and disconnection length, the mean
working set, SEER's additional miss-free space, and LRU's additional
space.  Figure 3 plots the per-window series for one machine sorted by
working-set size.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.simulation.missfree import MissFreeResult

MB = 1024 * 1024


def _bar(value: float, scale: float, width: int = 40) -> str:
    filled = int(round(value / scale * width)) if scale > 0 else 0
    return "#" * max(0, min(filled, width))


def render_figure2(results: Sequence[MissFreeResult],
                   show_ci: bool = False) -> str:
    """Figure 2: mean working sets and miss-free hoard sizes.

    *results* holds one entry per (machine, window, investigators)
    combination -- or several per combination (different seeds), which
    are averaged.
    """
    # show_ci is ignored: benchmarks/e2e/replay.py and the golden test
    # still pass it.
    grouped: Dict[Tuple[str, float, bool], List[MissFreeResult]] = {}
    for result in results:
        key = (result.machine, result.window_seconds, result.use_investigators)
        grouped.setdefault(key, []).append(result)

    rows = []
    for (machine, window, investigators), group in sorted(
            grouped.items(), key=lambda item: (item[0][0], item[0][2], item[0][1])):
        label = machine + ("*" if investigators else "")
        period = "daily" if window <= 2 * 86400 else "weekly"
        rows.append((label, period,
                     sum(r.mean_working_set for r in group) / len(group),
                     sum(r.mean_seer for r in group) / len(group),
                     sum(r.mean_lru for r in group) / len(group)))

    scale = max((row[4] for row in rows), default=1.0)
    lines = [
        "Figure 2: Mean working sets and miss-free hoard sizes",
        "(W = working set, S = additional space needed by SEER,",
        " L = additional space needed by LRU; * = with investigators)",
        "",
    ]
    for label, period, ws, seer, lru in rows:
        ws_part = _bar(ws, scale)
        seer_part = _bar(max(0.0, seer - ws), scale).replace("#", "S")
        lru_part = _bar(max(0.0, lru - seer), scale).replace("#", "L")
        lines.append(
            f"{label:<3}{period:<7} |{ws_part}{seer_part}{lru_part}")
        lines.append(
            f"{'':10} ws={ws / MB:6.2f}  seer={seer / MB:6.2f}  "
            f"lru={lru / MB:6.2f} MB")
    return "\n".join(lines)


def render_figure3(result: MissFreeResult, width: int = 50) -> str:
    """Figure 3: per-window sizes for one machine, sorted by working set.

    Each X position is one simulated weekly disconnection; the series
    are the working set, SEER's miss-free size and LRU's.
    """
    windows = sorted(result.windows, key=lambda w: w.working_set_bytes)
    if not windows:
        return "Figure 3: (no windows)"
    scale = max(w.lru_bytes for w in windows) or 1
    lines = [
        f"Figure 3: Hoard sizes vs. sorted working sets "
        f"(machine {result.machine}, weekly disconnections)",
        f"{'#':>3} {'WS(MB)':>8} {'SEER':>8} {'LRU':>8}   "
        f"W=working set  S=seer  L=lru",
    ]
    for index, window in enumerate(windows):
        ws_bar = _bar(window.working_set_bytes, scale, width)
        seer_bar = _bar(max(0, window.seer_bytes - window.working_set_bytes),
                        scale, width).replace("#", "S")
        lru_bar = _bar(max(0, window.lru_bytes - window.seer_bytes),
                       scale, width).replace("#", "L")
        lines.append(
            f"{index:>3} {window.working_set_bytes / MB:>8.2f} "
            f"{window.seer_bytes / MB:>8.2f} {window.lru_bytes / MB:>8.2f}   "
            f"|{ws_bar}{seer_bar}{lru_bar}")
    return "\n".join(lines)
