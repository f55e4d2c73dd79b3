"""The compare verdicts: better, same, worse, unresolved."""

from benchmarks.e2e.compare import collect, table, verdict

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def shifted(values, factor):
    return [value * factor for value in values]


def test_clear_gain_is_better():
    assert verdict(BASE, shifted(BASE, 0.9), "lower", 0.1) == "better"
    assert verdict(BASE, shifted(BASE, 1.1), "higher", 0.1) == "better"


def test_gain_needs_nine_of_ten_pairs():
    change = shifted(BASE, 0.95)
    change[0], change[1] = 200.0, 200.0   # two lost pairs
    assert verdict(BASE, change, "lower", 0.5) != "better"


def test_small_gain_within_base_spread_is_same():
    assert verdict(BASE, shifted(BASE, 0.999), "lower", 0.1) == "same"


def test_loss_beyond_bound_is_worse():
    assert verdict(BASE, shifted(BASE, 1.2), "lower", 0.1) == "worse"
    assert verdict(BASE, shifted(BASE, 0.8), "higher", 0.1) == "worse"


def test_loss_within_bound_is_same():
    assert verdict(BASE, shifted(BASE, 1.05), "lower", 0.1) == "same"


def test_spread_wider_than_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    assert verdict(noisy, shifted(noisy, 1.02), "lower", 0.1) == \
        "unresolved"


def document(values):
    return {"workloads": {"figure2": {
        "metrics": {"wall_s": {"value": values[0], "unit": "s"}},
        "per_layer": {"cluster.builds": {"value": values[1],
                                         "unit": "count"}}}}}


def test_table_rows_per_workload_and_metric():
    base = [document((10.0 + i * 0.01, 5)) for i in range(10)]
    change = [document((8.0 + i * 0.01, 5)) for i in range(10)]
    assert collect(base)[("figure2", "wall_s")][0] == 10.0
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s",
                            "better": "lower", "bound": 0.1}]}
    text = table(base, change, spec)
    rows = [line.split() for line in text.splitlines()]
    wall = next(row for row in rows if row[:2] == ["figure2", "wall_s"])
    builds = next(row for row in rows
                  if row[:2] == ["figure2", "cluster.builds"])
    assert wall[-1] == "better"
    assert builds[-1] == "-"
