"""Live disconnections, end to end: the paper's section 5.2.2 study.

Replays six weeks of machine F: SEER fills the hoard before every
disconnection, the disconnected work is checked for misses, and each
failed disconnection is graded with the paper's severities, together
with how many hours of work passed before its first miss.

Run:  python examples/live_disconnection.py
"""

from repro.core.hoard import MissSeverity
from repro.simulation.live import scaled_hoard_budget, simulate_live_usage
from repro.workload import generate_machine_trace, machine_profile

MB = 1024 * 1024


def main():
    profile = machine_profile("F")
    trace = generate_machine_trace(profile, seed=9, days=42)
    budget = scaled_hoard_budget(trace)
    print(f"machine {profile.name}: hoard budget "
          f"{budget / MB:.2f} MB (the paper's 50 MB, scaled)\n")

    result = simulate_live_usage(trace)
    stats = result.disconnection_statistics()
    print(f"{stats.count} disconnections, mean {stats.mean:.1f} h, "
          f"median {stats.median:.1f} h, max {stats.maximum:.1f} h")
    print(f"failed disconnections: {result.failures_any_severity()} "
          f"({result.failures_any_severity() / stats.count:.0%})")
    for severity in MissSeverity:
        count = result.failures_at_severity(severity)
        if count:
            print(f"  severity {severity.value} ({severity.name}): {count}")
    first = result.first_miss_hours()
    if first:
        print(f"hours to first miss (failed disconnections only): "
              f"{', '.join(f'{h:.1f}' for h in sorted(first))}")


if __name__ == "__main__":
    main()
