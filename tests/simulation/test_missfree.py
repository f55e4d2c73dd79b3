"""Tests for the miss-free hoard-size simulation (section 5.2.1)."""

import pytest

from repro.simulation import SIM_PARAMETERS
from repro.simulation.missfree import (
    MissFreeResult,
    WindowResult,
    make_size_function,
    simulate_miss_free,
)
from repro.workload import generate_machine_trace, machine_profile

DAY = 86400.0
WEEK = 7 * DAY


@pytest.fixture(scope="module")
def trace():
    return generate_machine_trace(machine_profile("D"), seed=11, days=21)


@pytest.fixture(scope="module")
def daily(trace):
    return simulate_miss_free(trace, DAY)


class TestSimulateMissFree:
    def test_windows_produced(self, daily):
        assert len(daily.windows) >= 10

    def test_measures_positive(self, daily):
        for window in daily.windows:
            assert window.working_set_bytes > 0
            assert window.seer_bytes >= 0
            assert window.lru_bytes >= 0

    def test_both_managers_at_least_working_set(self, daily):
        # A miss-free hoard must contain at least the coverable files.
        for window in daily.windows:
            assert window.seer_bytes >= window.working_set_bytes * 0.5
            assert window.lru_bytes >= window.working_set_bytes * 0.5

    def test_lru_exceeds_seer_on_average(self, trace, daily):
        # The paper's headline: SEER's clustering manager needs far
        # less space than LRU (whose history find(1) destroys).
        assert daily.mean_lru > daily.mean_seer

    def test_seer_tracks_working_set(self, daily):
        # "requires space only slightly greater than the working set":
        # well under 3x here, typically under 2x.
        assert daily.mean_seer < 3 * daily.mean_working_set

    def test_weekly_windows_fewer_and_larger(self, trace, daily):
        weekly = simulate_miss_free(trace, WEEK)
        assert len(weekly.windows) < len(daily.windows)
        assert weekly.mean_working_set > daily.mean_working_set

    def test_overheads_computed(self, daily):
        window = daily.windows[0]
        assert window.seer_overhead == pytest.approx(
            window.seer_bytes / window.working_set_bytes)

    def test_ratio_property(self, daily):
        assert daily.lru_to_seer_ratio == pytest.approx(
            daily.mean_lru / daily.mean_seer)

    def test_empty_trace(self):
        empty = generate_machine_trace(machine_profile("E"), seed=1, days=14)
        empty.records = []
        result = simulate_miss_free(empty, DAY)
        assert result.windows == []
        assert result.mean_seer == 0.0

    def test_investigators_run_without_error(self, trace):
        result = simulate_miss_free(trace, WEEK, use_investigators=True)
        assert result.use_investigators
        assert result.windows

    def test_investigators_no_dramatic_change(self, trace):
        # The paper found no statistically meaningful effect.
        plain = simulate_miss_free(trace, WEEK, use_investigators=False)
        with_inv = simulate_miss_free(trace, WEEK, use_investigators=True)
        assert with_inv.mean_seer < 2.5 * plain.mean_seer

    def test_seed_changes_fallback_sizes_only(self, trace):
        first = simulate_miss_free(trace, WEEK, seed=0)
        second = simulate_miss_free(trace, WEEK, seed=1)
        # Same windows, same reference counts.
        assert [w.referenced_files for w in first.windows] == \
            [w.referenced_files for w in second.windows]


class TestSizeFunction:
    def test_actual_size_used(self, trace):
        sizes = make_size_function(trace, seed=0)
        assert sizes("/lib/libc.so") == trace.size_of("/lib/libc.so")

    def test_fallback_geometric(self, trace):
        sizes = make_size_function(trace, seed=0)
        value = sizes("/deleted/file")
        assert value >= 1

    def test_fallback_deterministic_per_seed(self, trace):
        first = make_size_function(trace, seed=5)("/ghost")
        second = make_size_function(trace, seed=5)("/ghost")
        assert first == second

    def test_cached(self, trace):
        sizes = make_size_function(trace, seed=0)
        assert sizes("/ghost") == sizes("/ghost")


class TestSpyIntegration:
    def test_spy_disabled_by_default(self, daily):
        assert all(w.spy_bytes == 0 for w in daily.windows)

    def test_spy_measured_when_enabled(self, trace):
        result = simulate_miss_free(trace, DAY, include_spy=True)
        assert any(w.spy_bytes > 0 for w in result.windows)

    def test_spy_between_working_set_and_lru(self, trace):
        result = simulate_miss_free(trace, DAY, include_spy=True)
        # SPY automates hoarding (beats raw LRU) but lacks semantic
        # clustering (does not beat SEER decisively).
        assert result.mean_spy < result.mean_lru
        assert result.mean_spy >= 0.5 * result.mean_working_set


class TestOneSizingPerWindow:
    """Each policy is sized once per scored window, SEER first: the
    fill interval the e2e benchmark times runs from the build to the
    end of the first ``HoardManager.miss_free_size`` call after it."""

    def test_each_policy_sized_once_per_window(self, monkeypatch):
        from repro.baselines.coda_priority import CodaPriorityManager
        from repro.baselines.spy_utility import SpyUtilityManager
        from repro.core.hoard import HoardManager
        from repro.core.seer import Seer
        from repro.simulation import missfree
        calls = []

        def count(owner, name, label):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.append(label)
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(Seer, "build_clusters", "build")
        count(HoardManager, "miss_free_size", "seer")
        count(missfree, "lru_miss_free_size", "lru")
        count(SpyUtilityManager, "miss_free_size", "spy")
        count(CodaPriorityManager, "miss_free_size", "coda")
        trace = generate_machine_trace(machine_profile("C"), seed=11,
                                       days=4)
        result = simulate_miss_free(trace, DAY, include_spy=True,
                                    include_coda=True)
        assert result.windows
        assert calls == ["build", "seer", "lru", "spy", "coda"] * \
            len(result.windows)
