"""Faults where SEER meets the replication system.

SEER touches the replication system at two points: the hoard fill
before a disconnection and the reintegration after it.  The
reproduction simulates no replication transport; the live replay
models both steps directly, and these tests check that model:

* :func:`repro.simulation.live._faulted_fill` -- the fill, cut short
  by a surprise disconnection or thinned by flaky reads;
* :func:`repro.simulation.live._reconnect_sync_attempts` -- the
  reintegration, retried under the bounded-attempts
  :class:`~repro.faults.RetryPolicy`.  Its bookkeeping is what the
  ``faults.sync_*`` and ``faults.backoff_ms`` counters of a faulted
  ``live`` run report.
"""

from repro.core.hoard import HoardSelection
from repro.faults import (LOSSY, NO_FAULTS, FaultInjector, FaultProfile,
                          RetryPolicy)
from repro.simulation.live import (_faulted_fill, _reconnect_sync_attempts,
                                   simulate_live_usage)
from repro.workload import generate_machine_trace, machine_profile

SIZES = {"/proj/a": 10, "/proj/b": 20, "/proj/c": 30}


def _selection(paths):
    return HoardSelection(files=set(paths),
                          total_bytes=sum(SIZES[path] for path in paths))


def _injector(**probabilities):
    return FaultInjector(FaultProfile(name="test", **probabilities), seed=1)


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(initial_backoff_seconds=1.0,
                             backoff_multiplier=2.0,
                             max_backoff_seconds=60.0)
        assert [policy.backoff_for(n) for n in (1, 2, 3, 4)] == \
            [1.0, 2.0, 4.0, 8.0]

    def test_backoff_capped(self):
        policy = RetryPolicy(initial_backoff_seconds=1.0,
                             backoff_multiplier=2.0,
                             max_backoff_seconds=60.0)
        assert policy.backoff_for(10) == 60.0

    def test_from_profile(self):
        profile = FaultProfile(name="t", max_sync_attempts=5,
                               backoff_initial_seconds=0.5,
                               backoff_multiplier=3.0,
                               backoff_max_seconds=10.0)
        policy = RetryPolicy.from_profile(profile)
        assert policy.max_attempts == 5
        assert policy.backoff_for(1) == 0.5
        assert policy.backoff_for(2) == 1.5
        assert policy.backoff_for(9) == 10.0


class TestFillFaults:
    def test_interrupted_fill_leaves_disconnected(self):
        # The user walks away mid-fill: the laptop leaves with only the
        # files fetched before the cut.
        requested = set(SIZES)
        kept, kept_bytes, interrupted = _faulted_fill(
            _injector(fill_interrupt_probability=1.0),
            _selection(requested), SIZES.__getitem__)
        assert interrupted
        assert kept < requested   # the cut always strands at least one file
        assert kept_bytes == sum(SIZES[path] for path in kept)

    def test_partial_fill_bytes_counted(self):
        injector = _injector(fill_interrupt_probability=1.0)
        kept, _, _ = _faulted_fill(injector, _selection(SIZES),
                                   SIZES.__getitem__)
        snapshot = injector.metrics.snapshot()
        assert snapshot["faults.fill_interrupted"] == 1
        assert snapshot["faults.partial_fill_bytes"] == \
            sum(size for path, size in SIZES.items() if path not in kept)

    def test_flaky_reads_skip_files_without_disconnecting(self):
        injector = _injector(read_failure_probability=1.0)
        kept, kept_bytes, interrupted = _faulted_fill(
            injector, _selection({"/proj/a", "/proj/b"}), SIZES.__getitem__)
        assert kept == set()
        assert kept_bytes == 0
        assert not interrupted
        assert injector.metrics.snapshot()["faults.reads_failed"] == 2

    def test_inert_injector_changes_nothing(self):
        injector = FaultInjector(NO_FAULTS, seed=99)
        selection = _selection(SIZES)
        kept, kept_bytes, interrupted = _faulted_fill(
            injector, selection, SIZES.__getitem__)
        assert kept is selection.files
        assert kept_bytes == selection.total_bytes
        assert not interrupted
        assert injector.metrics.snapshot() == {}


class ScriptedSync:
    """An injector whose first *failures* sync attempts fail."""

    def __init__(self, failures):
        self.failures = failures
        self.attempts = 0
        self.retries = []

    def sync_attempt_fails(self):
        self.attempts += 1
        if self.failures:
            self.failures -= 1
            return True
        return False

    def note_retry(self, backoff_seconds):
        self.retries.append(backoff_seconds)

    def note_sync_gave_up(self):
        raise AssertionError("should have succeeded")


class TestSyncRetry:
    def test_bounded_attempts_then_give_up(self):
        injector = _injector(sync_failure_probability=1.0)
        _reconnect_sync_attempts(injector, RetryPolicy())
        snapshot = injector.metrics.snapshot()
        assert snapshot["faults.sync_failures"] == 3
        # Backoff after attempts 1 and 2 (no wait after the last).
        assert snapshot["faults.sync_retries"] == 2
        assert snapshot["faults.backoff_ms"] == 3000
        assert snapshot["faults.sync_gave_up"] == 1

    def test_success_after_transient_failures(self):
        scripted = ScriptedSync(failures=2)
        _reconnect_sync_attempts(scripted, RetryPolicy(max_attempts=4))
        assert scripted.attempts == 3
        assert scripted.retries == [1.0, 2.0]

    def test_inject_faults_adopts_profile_policy(self):
        # Every reconnection of the replay fails all seven attempts the
        # profile allows, backing off 0.25 s, 0.5 s, ... 8 s in between.
        profile = FaultProfile(name="t", sync_failure_probability=1.0,
                               max_sync_attempts=7,
                               backoff_initial_seconds=0.25)
        trace = generate_machine_trace(machine_profile("E"), seed=1, days=3)
        result = simulate_live_usage(trace, fault_profile=profile)
        reconnections = len(result.outcomes)
        assert reconnections > 0
        assert result.metrics["faults.sync_failures"] == 7 * reconnections
        assert result.metrics["faults.sync_retries"] == 6 * reconnections
        assert result.metrics["faults.backoff_ms"] == 15750 * reconnections
        assert result.metrics["faults.sync_gave_up"] == reconnections


class TestHoardFillAccounting:
    def test_clean_fill_reports_everything_fetched(self):
        # LOSSY only fails synchronizations: its fills run to the end.
        injector = FaultInjector(LOSSY, seed=1)
        selection = _selection({"/proj/a", "/proj/b"})
        kept, kept_bytes, interrupted = _faulted_fill(
            injector, selection, SIZES.__getitem__)
        assert kept == {"/proj/a", "/proj/b"}
        assert kept_bytes == 30
        assert not interrupted
        assert injector.metrics.snapshot() == {}
