"""Tests for the ingestion-pipeline metrics primitives.

These exercise the raw counter/span/timer machinery with throwaway
names, so they opt out of the suite-wide strict registry check
(``Metrics(strict=False)``); registry enforcement itself is covered
in ``tests/observability/test_registry.py``.
"""

import pytest

from repro.observability import Metrics, SpanStat, TimerStat


class TestCounters:
    def test_incr_creates_and_adds(self):
        metrics = Metrics(strict=False)
        metrics.incr("x")
        metrics.incr("x", 4)
        assert metrics.counter("x") == 5

    def test_missing_counter_is_zero(self):
        assert Metrics(strict=False).counter("never") == 0

    def test_counters_in_snapshot(self):
        metrics = Metrics(strict=False)
        metrics.incr("a", 3)
        assert metrics.snapshot()["a"] == 3

    def test_absorb_snapshot_merges_only_counters(self):
        source = Metrics(strict=False)
        source.incr("c", 3)
        source.mark("s", 2)
        with source.timed("t"):
            pass
        sink = Metrics(strict=False)
        sink.absorb_counters(source.snapshot())
        assert sink.counters == {"c": 3}


class TestSpans:
    def test_mark_counts_events(self):
        metrics = Metrics(strict=False)
        metrics.mark("refs")
        metrics.mark("refs", 9)
        span = metrics.span("refs")
        assert span.count == 10
        assert span.last >= span.first

    def test_rate_degenerate_cases(self):
        assert Metrics(strict=False).rate("never") == 0.0
        assert SpanStat(count=1, first=5.0, last=5.0).rate == 0.0

    def test_rate_positive_over_real_span(self):
        span = SpanStat(count=100, first=0.0, last=2.0)
        assert span.rate == pytest.approx(50.0)

    def test_span_snapshot_keys(self):
        metrics = Metrics(strict=False)
        metrics.mark("refs", 2)
        snapshot = metrics.snapshot()
        assert snapshot["refs.count"] == 2
        assert "refs.seconds" in snapshot
        assert "refs.per_second" in snapshot


class TestTimers:
    def test_timed_accumulates(self):
        metrics = Metrics(strict=False)
        with metrics.timed("build"):
            pass
        with metrics.timed("build"):
            pass
        timer = metrics.timer("build")
        assert timer.calls == 2
        assert timer.total_seconds >= timer.last_seconds >= 0.0

    def test_timed_records_on_exception(self):
        metrics = Metrics(strict=False)
        with pytest.raises(RuntimeError):
            with metrics.timed("build"):
                raise RuntimeError("boom")
        assert metrics.timer("build").calls == 1

    def test_mean_seconds(self):
        timer = TimerStat(calls=4, total_seconds=2.0)
        assert timer.mean_seconds == pytest.approx(0.5)
        assert TimerStat().mean_seconds == 0.0

    def test_timer_snapshot_keys(self):
        metrics = Metrics(strict=False)
        with metrics.timed("build"):
            pass
        snapshot = metrics.snapshot()
        assert snapshot["build.calls"] == 1
        assert "build.total_seconds" in snapshot
        assert "build.mean_seconds" in snapshot


class TestRenderReset:
    def test_render_mentions_every_metric(self):
        metrics = Metrics(strict=False)
        metrics.incr("evictions", 7)
        metrics.mark("refs", 3)
        with metrics.timed("build"):
            pass
        text = metrics.render()
        assert "evictions" in text
        assert "refs.per_second" in text
        assert "build.mean_seconds" in text

    def test_reset_clears_all(self):
        metrics = Metrics(strict=False)
        metrics.incr("a")
        metrics.mark("b")
        with metrics.timed("c"):
            pass
        metrics.reset()
        assert metrics.snapshot() == {}


class TestThreadSafety:
    """Interleaved-update regression tests (the service daemon absorbs
    tenant registries from actors while they are still recording, and
    the parallel runner folds worker snapshots from a thread).

    Every read-modify-write in ``Metrics`` is a get-then-set; without
    the per-instance lock, a thread switch between the two loses one
    side's update.  ``sys.setswitchinterval`` is cranked down so the
    interpreter switches threads inside the critical section often
    enough that a regression fails loudly, not flakily.
    """

    THREADS = 8
    ROUNDS = 2_000

    def _hammer(self, worker):
        import sys
        import threading
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker)
                       for _ in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)

    def test_concurrent_incr_loses_no_updates(self):
        metrics = Metrics(strict=False)
        self._hammer(lambda: [metrics.incr("hits")
                              for _ in range(self.ROUNDS)])
        assert metrics.counter("hits") == self.THREADS * self.ROUNDS

    def test_concurrent_observe_loses_no_calls(self):
        metrics = Metrics(strict=False)
        self._hammer(lambda: [metrics.observe("op", 0.001)
                              for _ in range(self.ROUNDS)])
        timer = metrics.timer("op")
        assert timer.calls == self.THREADS * self.ROUNDS
        assert timer.total_seconds == pytest.approx(
            0.001 * self.THREADS * self.ROUNDS)

    def test_concurrent_absorb_counters_loses_no_updates(self):
        metrics = Metrics(strict=False)
        snapshot = {"a": 1, "b": 2}
        self._hammer(lambda: [metrics.absorb_counters(snapshot)
                              for _ in range(self.ROUNDS)])
        assert metrics.counter("a") == self.THREADS * self.ROUNDS
        assert metrics.counter("b") == 2 * self.THREADS * self.ROUNDS

    def test_concurrent_mark_counts_every_event(self):
        metrics = Metrics(strict=False)
        self._hammer(lambda: [metrics.mark("refs")
                              for _ in range(self.ROUNDS)])
        assert metrics.span("refs").count == self.THREADS * self.ROUNDS

    def test_absorb_while_recording_is_consistent(self):
        """The daemon's combined_counters path: one side records, the
        other absorbs snapshots -- totals must stay exact."""
        source = Metrics(strict=False)
        sink = Metrics(strict=False)

        def record():
            for _ in range(self.ROUNDS):
                source.incr("events")

        def fold():
            for _ in range(self.ROUNDS // 10):
                sink.absorb_counters({"folds": 1})
                source.snapshot()     # must never see a torn update

        import sys
        import threading
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=record) for _ in range(4)] \
                + [threading.Thread(target=fold) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)
        assert source.counter("events") == 4 * self.ROUNDS
        assert sink.counter("folds") == 4 * (self.ROUNDS // 10)

    def test_recording_inside_timed_block_does_not_block(self):
        """``timed`` must not hold the (non-reentrant) lock across its
        yield: the daemon records counters inside timed blocks, and a
        lock held there would deadlock the first ``incr``."""
        import threading
        metrics = Metrics(strict=False)

        def build():
            with metrics.timed("build"):
                metrics.incr("inside")

        thread = threading.Thread(target=build, daemon=True)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert metrics.counter("inside") == 1
