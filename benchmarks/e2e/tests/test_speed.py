"""Reference seconds: intervals converted with the host-speed probes."""

import signal
import time

import pytest

from benchmarks.e2e.speed import REFERENCE_SECONDS, SpeedLog

R = REFERENCE_SECONDS


def test_steady_half_speed_host_halves_every_interval():
    # Probes take twice the reference time, one every 10 s.
    log = SpeedLog([(10.0 * k, 10.0 * k + 2 * R) for k in range(4)])
    assert log.reference_seconds(1.0, 5.0) == pytest.approx(2.0)
    assert log.reference_seconds(3.0, 23.0) == pytest.approx(
        (20.0 - 2 * 2 * R) / 2)   # two probes fall inside and count 0


def test_time_inside_a_probe_counts_nothing():
    log = SpeedLog([(0.0, R), (1.0, 1.0 + R)])
    assert log.reference_seconds(0.0, R) == 0.0
    assert log.reference_seconds(R / 4, R / 2) == 0.0
    assert log.reference_seconds(0.0, 1.0 + R) == pytest.approx(1.0 - R)


def test_a_gap_runs_at_the_mean_rate_of_its_two_probes():
    # Full speed at the first probe, half speed at the second.
    log = SpeedLog([(0.0, R), (1.0 + R, 1.0 + 3 * R)])
    assert log.reference_seconds(R, 1.0 + R) == pytest.approx(0.75)


def test_outside_the_probes_the_nearest_gap_rate_runs_on():
    log = SpeedLog([(0.0, 2 * R), (1.0, 1.0 + 2 * R)])
    assert log.reference_seconds(-4.0, -2.0) == pytest.approx(1.0)
    assert log.reference_seconds(3.0, 5.0) == pytest.approx(1.0)


def test_probes_survive_a_round_trip_through_json_lists():
    probes = [(0.0, R), (1.0, 1.0 + 2 * R)]
    log = SpeedLog([list(probe) for probe in probes])
    assert log.probes == probes
    assert log.slowdown() == pytest.approx(1.5)


def test_no_probes_cannot_convert():
    with pytest.raises(RuntimeError):
        SpeedLog().reference_seconds(0.0, 1.0)


def test_sampling_probes_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    log = SpeedLog()
    with log.sampling(interval=0.02):
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(log.probes) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    starts = [start for start, _ in log.probes]
    assert starts == sorted(starts)
    assert all(end > start for start, end in log.probes)
