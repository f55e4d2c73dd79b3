"""Span self-time arithmetic and the wrap/restore machinery."""

import threading
import types

import pytest

from benchmarks.e2e import tracer as tracer_module
from benchmarks.e2e.tracer import (Instrumentation, Tracer, covered_seconds,
                                   self_seconds_by_layer)


@pytest.fixture
def clock(monkeypatch):
    """A settable clock standing in for perf_counter inside the tracer."""
    now = types.SimpleNamespace(value=0.0)
    monkeypatch.setattr(tracer_module, "time",
                        types.SimpleNamespace(perf_counter=lambda: now.value))
    return now


def test_covered_counts_overlapping_children_once():
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    # [1, 6] plus [8, 10] after clipping to the parent.
    assert covered_seconds(0.0, 10.0, children) == pytest.approx(7.0)


def test_covered_handles_nested_disjoint_and_outside_children():
    assert covered_seconds(0.0, 10.0, []) == 0.0
    assert covered_seconds(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == \
        pytest.approx(6.0)
    assert covered_seconds(0.0, 10.0, [(1.0, 2.0), (5.0, 7.0)]) == \
        pytest.approx(3.0)
    assert covered_seconds(0.0, 10.0, [(-5.0, -1.0), (11.0, 12.0)]) == 0.0


def test_nested_self_times_partition_the_root(clock):
    tracer = Tracer(individual={"root"})
    clock.value = 0.0
    root = tracer.begin("root")
    clock.value = 1.0
    a = tracer.begin("a")
    clock.value = 2.0
    grand = tracer.begin("a.inner")
    clock.value = 3.0
    tracer.end(grand)
    clock.value = 4.0
    tracer.end(a)
    clock.value = 5.0
    b = tracer.begin("b")
    clock.value = 9.0
    tracer.end(b)
    clock.value = 10.0
    tracer.end(root)

    stats = tracer.summary()
    assert stats["root"].self_seconds == pytest.approx(3.0)
    assert stats["a"].self_seconds == pytest.approx(2.0)
    assert stats["a.inner"].self_seconds == pytest.approx(1.0)
    assert stats["b"].self_seconds == pytest.approx(4.0)
    assert sum(s.self_seconds for s in stats.values()) == pytest.approx(10.0)
    assert self_seconds_by_layer(stats)["a"] == pytest.approx(3.0)
    # Only the individual span is kept one by one.
    assert [span.name for span in tracer.spans] == ["root"]


def test_recorded_overlapping_children_reduce_parent_self_once(clock):
    tracer = Tracer(individual={"phase"})
    clock.value = 0.0
    phase = tracer.begin("phase")
    clock.value = 10.0
    tracer.end(phase)
    parent_id = tracer.spans[0].span_id
    tracer.record("request", 1.0, 4.0, parent_id)
    tracer.record("request", 3.0, 6.0, parent_id)

    stats = tracer.summary()
    assert stats["phase"].self_seconds == pytest.approx(5.0)
    assert stats["request"].count == 2
    assert stats["request"].total == pytest.approx(6.0)


def test_repeated_calls_aggregate(clock):
    tracer = Tracer()
    for start in (0.0, 10.0, 20.0):
        clock.value = start
        frame = tracer.begin("stat")
        clock.value = start + 0.5
        tracer.end(frame)
    assert tracer.stats["stat"].count == 3
    assert tracer.stats["stat"].total == pytest.approx(1.5)
    assert tracer.spans == []


def test_out_of_order_end_is_an_error(clock):
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrap_counts_calls_and_close_restores():
    from repro.service import protocol
    original = protocol.encode
    tracer = Tracer()
    with Instrumentation(tracer) as instrumentation:
        instrumentation.wrap("repro.service.protocol:encode",
                             "protocol.encode")
        assert protocol.encode is not original
        assert protocol.encode({"type": "ping"}) == original({"type": "ping"})
    assert protocol.encode is original
    assert tracer.stats["protocol.encode"].count == 1


def test_wrap_rebinds_names_imported_elsewhere():
    from repro.simulation import missfree, population
    original = missfree.simulate_miss_free
    with Instrumentation(Tracer()) as instrumentation:
        instrumentation.wrap("repro.simulation.missfree:simulate_miss_free",
                             "missfree")
        assert population.simulate_miss_free is missfree.simulate_miss_free
        assert population.simulate_miss_free is not original
    assert population.simulate_miss_free is original


def test_wrapped_method_runs_post_hook_outside_its_span():
    from repro.core.clustering import ClusterSet
    seen = []
    tracer = Tracer()
    with Instrumentation(tracer) as instrumentation:
        instrumentation.wrap("repro.core.clustering:ClusterSet.new_cluster",
                             "cluster.new",
                             post=lambda result, *args: seen.append(result))
        ClusterSet().new_cluster(["/a", "/b"])
    assert seen == [0]
    assert tracer.stats["cluster.new"].count == 1
    assert tracer.stats["trace.probe"].count == 1
    assert "new_cluster" in vars(ClusterSet)
    assert not hasattr(ClusterSet.new_cluster, "__wrapped__")


def test_calls_from_other_threads_pass_through_unrecorded():
    from repro.service import protocol
    tracer = Tracer()
    with Instrumentation(tracer) as instrumentation:
        instrumentation.wrap("repro.service.protocol:encode",
                             "protocol.encode")
        worker = threading.Thread(target=protocol.encode,
                                  args=({"type": "ping"},))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert "protocol.encode" not in tracer.stats
    assert tracer.foreign_calls == 1
