"""Tests for the correlator (paper sections 4.7 and 4.8)."""

import pytest

from repro.core.correlator import Action, Correlator, ObservedReference
from repro.core.parameters import SeerParameters


def make_correlator(**overrides):
    defaults = dict(delete_delay=3)
    defaults.update(overrides)
    return Correlator(SeerParameters(**defaults))


class Driver:
    """Feeds references with auto-incrementing sequence numbers."""

    def __init__(self, correlator):
        self.correlator = correlator
        self.seq = 0

    def send(self, pid, action, path="", path2="", ppid=0, time=None):
        self.seq += 1
        self.correlator.handle(ObservedReference(
            seq=self.seq, time=float(self.seq if time is None else time),
            pid=pid, action=action, path=path, path2=path2, ppid=ppid))


@pytest.fixture
def correlator():
    return make_correlator()


@pytest.fixture
def driver(correlator):
    return Driver(correlator)


def distance(correlator, source, target):
    table = correlator.store.get(source)
    if table is None:
        return float("inf")
    return table.distance_to(target)


class TestBasicReferences:
    def test_open_close_sequence_builds_neighbors(self, correlator, driver):
        driver.send(1, Action.OPEN, "/a")
        driver.send(1, Action.CLOSE, "/a")
        driver.send(1, Action.OPEN, "/b")
        assert distance(correlator, "/a", "/b") == pytest.approx(1.0)

    def test_concurrent_opens_distance_zero(self, correlator, driver):
        driver.send(1, Action.OPEN, "/src.c")
        driver.send(1, Action.OPEN, "/header.h")
        assert distance(correlator, "/src.c", "/header.h") == pytest.approx(0.0)

    def test_point_reference(self, correlator, driver):
        driver.send(1, Action.POINT, "/a")
        driver.send(1, Action.POINT, "/b")
        assert distance(correlator, "/a", "/b") == pytest.approx(1.0)

    def test_recency_tracked(self, correlator, driver):
        driver.send(1, Action.POINT, "/a")
        driver.send(1, Action.POINT, "/b")
        recency = correlator.recency()
        assert recency["/b"] > recency["/a"]

    def test_known_files(self, correlator, driver):
        driver.send(1, Action.POINT, "/a")
        assert "/a" in correlator.known_files()


class TestLifetimeFigure1:
    """Paper Figure 1 (section 3.1.1) through the shipped engine.

    One process runs {Ao, Bo, Bc, Co, Cc, Ac, Do, Dc}.  A is still
    open when B and C open, so A->B = A->C = 0; D opens three opens
    after A, once A has closed, so A->D = 3; likewise B->C = 1,
    B->D = 2 and C->D = 1.  Distances run forward only.
    """

    def test_neighbor_tables_hold_figure1_distances(self, correlator,
                                                    driver):
        for action, name in [(Action.OPEN, "A"), (Action.OPEN, "B"),
                             (Action.CLOSE, "B"), (Action.OPEN, "C"),
                             (Action.CLOSE, "C"), (Action.CLOSE, "A"),
                             (Action.OPEN, "D"), (Action.CLOSE, "D")]:
            driver.send(1, action, name)
        expected = {("A", "B"): 0, ("A", "C"): 0, ("A", "D"): 3,
                    ("B", "C"): 1, ("B", "D"): 2, ("C", "D"): 1}
        for (source, target), value in expected.items():
            assert distance(correlator, source, target) == \
                pytest.approx(value)
        # No reverse-direction entry: every table lists later files only.
        assert correlator.store.neighbor_lists() == {
            "A": {"B", "C", "D"}, "B": {"C", "D"}, "C": {"D"}}


class TestPerProcessStreams:
    def test_interleaved_streams_kept_separate(self, correlator, driver):
        # Section 4.7: two independent processes interleaving must not
        # create spurious relationships.
        driver.send(1, Action.OPEN, "/compile/src.c")
        driver.send(2, Action.OPEN, "/mail/inbox")
        driver.send(1, Action.CLOSE, "/compile/src.c")
        driver.send(2, Action.CLOSE, "/mail/inbox")
        assert distance(correlator, "/compile/src.c", "/mail/inbox") == float("inf")
        assert distance(correlator, "/mail/inbox", "/compile/src.c") == float("inf")

    def test_fork_inherits_history(self, correlator, driver):
        driver.send(1, Action.POINT, "/parent-file")
        driver.send(10, Action.FORK, ppid=1)
        driver.send(10, Action.POINT, "/child-file")
        assert distance(correlator, "/parent-file", "/child-file") < float("inf")

    def test_exit_merges_child_into_parent(self, correlator, driver):
        driver.send(10, Action.FORK, ppid=1)
        driver.send(10, Action.POINT, "/made-by-child")
        driver.send(10, Action.EXIT)
        driver.send(1, Action.OPEN, "/parent-later")
        # The child's file relates to what the parent does next.
        assert distance(correlator, "/made-by-child", "/parent-later") < float("inf")

    def test_fork_without_known_parent(self, correlator, driver):
        driver.send(10, Action.FORK, ppid=999)
        driver.send(10, Action.POINT, "/a")   # must not crash
        assert "/a" in correlator.known_files()


class TestExecExit:
    def test_exec_is_open_until_exit(self, correlator, driver):
        # Section 4.8: executions are opens, terminations closes, so
        # every file the process touches is at distance 0 from the
        # program image.
        driver.send(1, Action.EXEC, "/bin/cc")
        driver.send(1, Action.POINT, "/one")
        for index in range(5):
            driver.send(1, Action.POINT, f"/junk{index}")
        driver.send(1, Action.POINT, "/two")
        assert distance(correlator, "/bin/cc", "/two") == pytest.approx(0.0)

    def test_second_exec_closes_first_image(self, correlator, driver):
        driver.send(1, Action.EXEC, "/bin/sh")
        driver.send(1, Action.EXEC, "/bin/cc")
        driver.send(1, Action.POINT, "/x")
        driver.send(1, Action.POINT, "/y")
        # /bin/sh closed at the second exec: distance to /y is nonzero.
        assert distance(correlator, "/bin/sh", "/y") > 0


class TestStatElision:
    def test_stat_then_open_collapses(self, correlator, driver):
        # Section 4.8: an examination immediately followed by an open
        # is discarded as insignificant -- one reference, not two.
        driver.send(1, Action.POINT, "/before")
        driver.send(1, Action.STAT, "/target")
        driver.send(1, Action.OPEN, "/target")
        assert distance(correlator, "/before", "/target") == pytest.approx(1.0)

    def test_stat_then_other_reference_materializes(self, correlator, driver):
        driver.send(1, Action.STAT, "/checked")
        driver.send(1, Action.POINT, "/other")
        assert distance(correlator, "/checked", "/other") == pytest.approx(1.0)

    def test_stat_then_open_of_different_file(self, correlator, driver):
        driver.send(1, Action.STAT, "/checked")
        driver.send(1, Action.OPEN, "/different")
        # The stat was flushed as a point reference first.
        assert distance(correlator, "/checked", "/different") == pytest.approx(1.0)

    def test_make_style_stats_related(self, correlator, driver):
        # make examines foo.o's attributes, then opens foo.c: the stat
        # indicates a close relationship (section 4.8).
        driver.send(1, Action.STAT, "/proj/foo.o")
        driver.send(1, Action.OPEN, "/proj/foo.c")
        assert distance(correlator, "/proj/foo.o", "/proj/foo.c") < float("inf")


class TestDeletion:
    def test_deleted_file_marked(self, correlator, driver):
        driver.send(1, Action.POINT, "/doomed")
        driver.send(1, Action.DELETE, "/doomed")
        assert "/doomed" in correlator.store.marked_for_deletion

    def test_removal_delayed_by_deletion_count(self, correlator, driver):
        driver.send(1, Action.POINT, "/related")
        driver.send(1, Action.DELETE, "/doomed")
        assert "/doomed" in correlator.known_files()
        for index in range(5):  # delete_delay=3: push it past expiry
            driver.send(1, Action.DELETE, f"/other{index}")
        assert "/doomed" not in correlator.store.files()

    def test_recreation_cancels_deletion(self, correlator, driver):
        # Programs delete and immediately recreate files; the history
        # must survive (section 4.8).
        driver.send(1, Action.POINT, "/a")
        driver.send(1, Action.DELETE, "/recycled")
        driver.send(1, Action.OPEN, "/recycled")
        assert "/recycled" not in correlator.store.marked_for_deletion
        for index in range(5):
            driver.send(1, Action.DELETE, f"/other{index}")
        assert "/recycled" in correlator.known_files()


class TestRename:
    def test_rename_moves_identity(self, correlator, driver):
        driver.send(1, Action.POINT, "/neighbor")
        driver.send(1, Action.OPEN, "/tmp-name")
        driver.send(1, Action.CLOSE, "/tmp-name")
        driver.send(1, Action.RENAME, "/tmp-name", path2="/final-name")
        assert "/final-name" in correlator.known_files()
        assert distance(correlator, "/neighbor", "/final-name") < float("inf")

    def test_rename_updates_recency(self, correlator, driver):
        driver.send(1, Action.POINT, "/old")
        driver.send(1, Action.RENAME, "/old", path2="/new")
        recency = correlator.recency()
        assert "/old" not in recency
        assert "/new" in recency


class TestClusterIntegration:
    def test_build_clusters_from_traffic(self, correlator, driver):
        # Two separate projects referenced repeatedly become clusters.
        for _ in range(30):
            for name in ("/p1/a", "/p1/b", "/p1/c"):
                driver.send(1, Action.POINT, name)
        for _ in range(30):
            for name in ("/p2/x", "/p2/y", "/p2/z"):
                driver.send(2, Action.POINT, name)
        clusters = correlator.build_clusters()
        assert clusters.same_cluster("/p1/a", "/p1/b")
        assert clusters.same_cluster("/p2/x", "/p2/y")
        assert not clusters.same_cluster("/p1/a", "/p2/x")

    def test_references_processed_counter(self, correlator, driver):
        driver.send(1, Action.POINT, "/a")
        driver.send(1, Action.POINT, "/b")
        assert correlator.references_processed == 2


class TestStatTimeRegression:
    def test_flushed_stat_keeps_observed_time(self, correlator, driver):
        # Regression: flushing a pending stat as a point reference used
        # to record time=0.0, clobbering the file's recency timestamp.
        driver.send(1, Action.STAT, "/checked", time=5.0)
        driver.send(1, Action.POINT, "/other", time=6.0)
        assert correlator.recency_times()["/checked"] == pytest.approx(5.0)

    def test_flush_on_unrelated_open_keeps_time(self, correlator, driver):
        driver.send(1, Action.STAT, "/checked", time=11.0)
        driver.send(1, Action.OPEN, "/different", time=12.0)
        assert correlator.recency_times()["/checked"] == pytest.approx(11.0)


class TestExitMergeRegression:
    def test_exit_of_non_forked_stream_does_not_merge_into_pid0(
            self, correlator, driver):
        # Regression: any stream with ppid 0 used to merge into a pid-0
        # stream on exit, relating files of unrelated processes whenever
        # some reference had arrived tagged pid 0.
        driver.send(0, Action.POINT, "/pid0-before")
        driver.send(7, Action.POINT, "/made-by-7")
        driver.send(7, Action.EXIT)
        driver.send(0, Action.POINT, "/pid0-later")
        assert distance(correlator, "/made-by-7", "/pid0-later") == float("inf")

    def test_forked_child_still_merges_on_exit(self, correlator, driver):
        driver.send(10, Action.FORK, ppid=1)
        driver.send(10, Action.POINT, "/child-file")
        driver.send(10, Action.EXIT)
        driver.send(1, Action.POINT, "/parent-later")
        assert distance(correlator, "/child-file", "/parent-later") < float("inf")


class TestCompensation:
    def test_over_window_distance_recorded_as_compensation(self):
        # Section 3.1.3 end to end: a pair separated by more than the
        # lookback window reaches the neighbor table as the (smaller)
        # compensation distance instead of being dropped.
        correlator = make_correlator(lookback_window=3,
                                     compensation_distance=7)
        driver = Driver(correlator)
        driver.send(1, Action.POINT, "/a")
        for index in range(4):
            driver.send(1, Action.POINT, f"/x{index}")
        assert distance(correlator, "/a", "/x3") == pytest.approx(7.0)
        assert correlator.metrics.counter("neighbor.compensations") > 0
        assert correlator.metrics.counter("distance.pruned_entries") > 0


class TestIngestMetrics:
    def test_ingest_counters_advance(self, correlator, driver):
        driver.send(1, Action.POINT, "/a")
        driver.send(1, Action.POINT, "/b")
        snapshot = correlator.metrics.snapshot()
        assert snapshot["correlator.ingest.count"] == 2
        assert snapshot["correlator.distances_ingested"] >= 1

    def test_cluster_build_timed(self, correlator, driver):
        driver.send(1, Action.POINT, "/a")
        correlator.build_clusters()
        assert correlator.metrics.timer("correlator.cluster_build").calls == 1


class TestObservedReferenceContract:
    """A reference is an immutable value: the observer builds it by
    position, the protocol, the client and the benchmarks by keyword."""

    FIELDS = ("seq", "time", "pid", "action", "path", "path2", "ppid")

    def test_positional_and_keyword_construction_agree(self):
        positional = ObservedReference(5, 6.5, 7, Action.RENAME, "/a", "/b", 2)
        keyword = ObservedReference(seq=5, time=6.5, pid=7,
                                    action=Action.RENAME, path="/a",
                                    path2="/b", ppid=2)
        assert positional == keyword
        assert [getattr(keyword, name) for name in self.FIELDS] == \
            [5, 6.5, 7, Action.RENAME, "/a", "/b", 2]

    def test_defaults(self):
        reference = ObservedReference(seq=1, time=0.0, pid=3,
                                      action=Action.EXIT)
        assert (reference.path, reference.path2, reference.ppid) == \
            ("", "", 0)
        assert reference == ObservedReference(1, 0.0, 3, Action.EXIT)

    def test_field_order(self):
        assert ObservedReference._fields == self.FIELDS
        assert tuple(ObservedReference(1, 2.0, 3, Action.OPEN, "/a")) == \
            (1, 2.0, 3, Action.OPEN, "/a", "", 0)

    @pytest.mark.parametrize("name", FIELDS + ("extra",))
    def test_assignment_raises(self, name):
        reference = ObservedReference(1, 2.0, 3, Action.OPEN, "/a")
        with pytest.raises(AttributeError):
            setattr(reference, name, 0)

    def test_equal_references_hash_alike(self):
        first = ObservedReference(1, 2.0, 3, Action.STAT, "/a", ppid=4)
        second = ObservedReference(seq=1, time=2.0, pid=3,
                                   action=Action.STAT, path="/a", ppid=4)
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != ObservedReference(1, 2.0, 3, Action.POINT, "/a",
                                          ppid=4)

    @pytest.mark.parametrize("action", list(Action), ids=lambda a: a.name)
    def test_wire_round_trip(self, action):
        from repro.service import protocol
        reference = ObservedReference(12, 34.5, 6, action, "/a", "/b", 2)
        assert protocol.reference_from_wire(
            protocol.reference_to_wire(reference)) == reference
