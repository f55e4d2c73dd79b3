"""A miniature Figure 2: three machines, daily and weekly windows.

Runs the miss-free hoard-size simulation for machines C, D and F with
both disconnection lengths (and, for F, with external investigators),
then renders the stacked-bar comparison the paper's Figure 2 shows.

Run:  python examples/figure2_study.py          (about a minute)
"""

from repro.analysis import render_figure2, render_figure3
from repro.simulation.missfree import simulate_miss_free
from repro.workload import generate_machine_trace, machine_profile

DAY = 86400.0
WEEK = 7 * DAY


def main():
    results = []
    for name in ("C", "D", "F"):
        profile = machine_profile(name)
        print(f"simulating machine {name}...")
        trace = generate_machine_trace(profile, seed=1, days=42)
        for window in (DAY, WEEK):
            results.append(simulate_miss_free(trace, window))
        if profile.uses_investigators:
            for window in (DAY, WEEK):
                results.append(simulate_miss_free(trace, window,
                                                  use_investigators=True))
        weekly = results[-3 if profile.uses_investigators else -1]
    print()
    print(render_figure2(results))
    print()
    print(render_figure3(weekly))


if __name__ == "__main__":
    main()
