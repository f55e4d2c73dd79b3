"""The central metric-name registry and strict-mode enforcement."""

import pytest

from repro.observability import (METRICS, Metrics, UnregisteredMetricError,
                                 is_registered, sort_metric_names)
from repro.observability.registry import registry_index


class TestRegistryContents:
    def test_names_are_unique(self):
        names = [spec.name for spec in METRICS]
        assert len(names) == len(set(names))

    def test_kinds_are_known(self):
        assert {spec.kind for spec in METRICS} <= \
            {"counter", "span", "timer"}

    def test_every_spec_is_documented(self):
        assert all(spec.description for spec in METRICS)


class TestLookup:
    def test_exact_name(self):
        assert is_registered("correlator.distances_ingested")

    def test_prefix_family(self):
        assert is_registered("runner.machine.C")
        assert is_registered("runner.machine.workstation-9")

    def test_derived_suffixes_resolve_to_base(self):
        assert is_registered("correlator.ingest.per_second")
        assert is_registered("runner.wall.total_seconds")
        assert registry_index("correlator.ingest.per_second") == \
            registry_index("correlator.ingest")

    def test_unknown_name(self):
        assert not is_registered("nope.total")


class TestSortOrder:
    def test_registry_order_wins_over_alphabetical(self):
        # "correlator.ingest" is declared before "correlator.cluster_build"
        # alphabetically-later-first in the registry tuple.
        ordered = sort_metric_names(
            ["distance.pruned_entries", "correlator.ingest"])
        assert ordered == ["correlator.ingest", "distance.pruned_entries"]

    def test_unregistered_names_sort_last_alphabetically(self):
        ordered = sort_metric_names(
            ["zzz.custom", "aaa.custom", "faults.injected_total"])
        assert ordered == ["faults.injected_total", "aaa.custom",
                           "zzz.custom"]

    def test_derived_keys_stay_with_their_base(self):
        ordered = sort_metric_names([
            "runner.wall.total_seconds",
            "runner.busy.total_seconds",
            "runner.completions.per_second",
        ])
        assert ordered == [
            "runner.completions.per_second",
            "runner.wall.total_seconds",
            "runner.busy.total_seconds",
        ]


class TestStrictMode:
    def test_suite_default_is_strict(self):
        # tests/conftest.py flips strict_default on for every test.
        assert Metrics().strict is True

    def test_unregistered_incr_raises(self):
        with pytest.raises(UnregisteredMetricError) as exc:
            Metrics().incr("nope.total")
        assert "repro.observability.registry" in str(exc.value)

    def test_unregistered_mark_timed_observe_raise(self):
        metrics = Metrics()
        with pytest.raises(UnregisteredMetricError):
            metrics.mark("nope.span")
        with pytest.raises(UnregisteredMetricError):
            with metrics.timed("nope.timer"):
                pass
        with pytest.raises(UnregisteredMetricError):
            metrics.observe("nope.timer", 0.5)

    def test_registered_names_record_normally(self):
        metrics = Metrics()
        metrics.incr("faults.injected_total", 2)
        metrics.mark("correlator.ingest", 5)
        with metrics.timed("runner.machine.C"):
            pass
        assert metrics.counter("faults.injected_total") == 2

    def test_explicit_opt_out(self):
        metrics = Metrics(strict=False)
        metrics.incr("anything.goes")
        assert metrics.counter("anything.goes") == 1

    def test_render_uses_registry_order(self):
        metrics = Metrics()
        metrics.incr("faults.injected_total")
        metrics.incr("neighbor.evictions")
        text = metrics.render()
        assert text.index("neighbor.evictions") < \
            text.index("faults.injected_total")
