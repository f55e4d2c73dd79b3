"""Tests for the fault-injection core (docs/fault-injection.md)."""

import dataclasses
import json

import pytest

from repro.faults import (
    FLAKY,
    HOSTILE,
    LOSSY,
    NO_FAULTS,
    PROFILES,
    FaultInjector,
    FaultProfile,
    profile_from_name,
)
from repro.observability import Metrics
from repro.simulation.runner import ShardSpec
from repro.simulation.serde import codec_for, to_data


class TestProfiles:
    def test_registry_names_match(self):
        for name, profile in PROFILES.items():
            assert profile.name == name

    def test_registry_covers_the_shipped_profiles(self):
        assert {"none", "lossy", "flaky", "hostile"} == set(PROFILES)

    def test_lookup_by_name(self):
        assert profile_from_name("lossy") is LOSSY
        assert profile_from_name("none") is NO_FAULTS

    def test_unknown_name_rejected_with_known_list(self):
        with pytest.raises(ValueError, match="flaky"):
            profile_from_name("catastrophic")

    def test_only_none_is_inert(self):
        assert NO_FAULTS.inert
        for profile in (LOSSY, FLAKY, HOSTILE):
            assert not profile.inert

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultProfile(name="bad", sync_failure_probability=1.5)
        with pytest.raises(ValueError):
            FaultProfile(name="bad", read_failure_probability=-0.1)
        with pytest.raises(ValueError):
            FaultProfile(name="bad", max_sync_attempts=0)

    @pytest.mark.parametrize("profile", list(PROFILES.values()),
                             ids=list(PROFILES))
    def test_serde_round_trip_is_exact(self, profile):
        # A checkpoint stores its cell's profile by name
        # (ShardSpec.fault_profile): the stored spec must decode to the
        # same spec and resolve to the very same profile.
        spec = ShardSpec("live", "E", 1, 2.0, fault_profile=profile.name,
                         fault_seed=5)
        data = json.loads(json.dumps(to_data(spec), sort_keys=True))
        restored = codec_for(ShardSpec).decode(data)
        assert restored == spec
        assert profile_from_name(restored.fault_profile) is profile


def _decision_script(injector):
    """A fixed call sequence; returns every decision made."""
    trail = []
    for _ in range(20):
        trail.append(injector.fill_interruption(10))
        trail.append(injector.sync_attempt_fails())
        trail.append(injector.read_fails())
    return trail


class TestInjector:
    def test_inert_profile_never_draws(self):
        injector = FaultInjector(NO_FAULTS, seed=7)

        def poisoned(*_):
            raise AssertionError("inert profile drew a random number")
        injector._rng.random = poisoned
        injector._rng.randrange = poisoned
        injector._rng.randint = poisoned

        trail = _decision_script(injector)
        assert all(not decision for decision in trail)
        assert injector.metrics.snapshot() == {}

    def test_same_seed_replays_identically(self):
        first = _decision_script(FaultInjector(HOSTILE, seed=42))
        second = _decision_script(FaultInjector(HOSTILE, seed=42))
        assert first == second

    def test_different_seeds_differ(self):
        trails = {tuple(_decision_script(FaultInjector(HOSTILE, seed=s)))
                  for s in range(5)}
        assert len(trails) > 1

    def test_profiles_do_not_share_a_stream(self):
        # Same seed, different profile name -> different decisions even
        # where the probabilities agree.
        hostile = _decision_script(FaultInjector(HOSTILE, seed=1))
        renamed = dataclasses.replace(HOSTILE, name="hostile2")
        assert _decision_script(FaultInjector(renamed, seed=1)) != hostile

    def test_fill_interruption_bounds(self):
        injector = FaultInjector(
            FaultProfile(name="t", fill_interrupt_probability=1.0), seed=3)
        for total in (1, 2, 10):
            cut = injector.fill_interruption(total)
            assert cut is not None and 0 <= cut < total
        assert injector.fill_interruption(0) is None

    def test_counters_accumulate(self):
        metrics = Metrics()
        injector = FaultInjector(
            FaultProfile(name="t", sync_failure_probability=1.0), seed=0,
            metrics=metrics)
        assert injector.sync_attempt_fails()
        assert injector.sync_attempt_fails()
        snapshot = metrics.snapshot()
        assert snapshot["faults.sync_failures"] == 2
        assert snapshot["faults.injected_total"] == 2

    def test_retry_bookkeeping_in_integer_milliseconds(self):
        injector = FaultInjector(LOSSY, seed=0)
        injector.note_retry(1.0)
        injector.note_retry(2.5)
        injector.note_sync_gave_up()
        snapshot = injector.metrics.snapshot()
        assert snapshot["faults.sync_retries"] == 2
        assert snapshot["faults.backoff_ms"] == 3500
        assert snapshot["faults.sync_gave_up"] == 1

    def test_read_latency_accumulated_on_slow_success(self):
        injector = FaultInjector(
            FaultProfile(name="t", read_latency_seconds=0.5), seed=0)
        assert not injector.read_fails()
        assert not injector.read_fails()
        assert injector.metrics.snapshot()["faults.read_latency_ms"] == 1000
