"""Tests for semantic distance Definitions 1-3 (paper section 3.1).

Definition 3 (the ``TestLifetime*`` classes) runs against the
one-stream transcription kept as the test oracle
(``tests/oracle/distance.py``); the shipped correlator's fused scan is
pinned to Figure 1 in ``tests/core/test_correlator.py`` and to the
oracle by ``tests/core/test_equivalence.py``.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.distance import (
    DistanceSummary,
    RefKind,
    Reference,
    SequenceDistanceCalculator,
    opens,
    temporal_distances,
)
from tests.oracle.distance import LifetimeDistanceCalculator


def as_dict(pairs):
    return {(a, b): d for a, b, d in pairs}


class TestTemporalDistance:
    """Definition 1: elapsed clock time between references."""

    def test_elapsed_time(self):
        events = [Reference("A", RefKind.OPEN, time=0.0),
                  Reference("B", RefKind.OPEN, time=5.0)]
        assert as_dict(temporal_distances(events)) == {("A", "B"): 5.0}

    def test_closest_pair_used(self):
        events = [Reference("A", RefKind.OPEN, time=0.0),
                  Reference("A", RefKind.OPEN, time=9.0),
                  Reference("B", RefKind.OPEN, time=10.0)]
        assert as_dict(temporal_distances(events))[("A", "B")] == 1.0

    def test_closes_ignored(self):
        events = [Reference("A", RefKind.OPEN, time=0.0),
                  Reference("A", RefKind.CLOSE, time=3.0),
                  Reference("B", RefKind.OPEN, time=5.0)]
        assert as_dict(temporal_distances(events)) == {("A", "B"): 5.0}

    def test_asymmetric(self):
        events = [Reference("A", RefKind.OPEN, time=0.0),
                  Reference("B", RefKind.OPEN, time=5.0),
                  Reference("A", RefKind.OPEN, time=7.0)]
        distances = as_dict(temporal_distances(events))
        assert distances[("A", "B")] == 5.0
        assert distances[("B", "A")] == 2.0


class TestSequenceDistance:
    """Definition 2: number of intervening references to other files."""

    def test_adjacent_references(self):
        assert as_dict(SequenceDistanceCalculator().process_all("AB")) == {
            ("A", "B"): 0}

    def test_intervening_counted(self):
        distances = as_dict(SequenceDistanceCalculator().process_all("AXYB"))
        assert distances[("A", "B")] == 2

    def test_repeats_not_elided(self):
        # Footnote 1: in the sequence A C C C B, the strict
        # interpretation gives A -> B distance 3, SEER's choice.
        distances = as_dict(SequenceDistanceCalculator().process_all("ACCCB"))
        assert distances[("A", "B")] == 3

    def test_closest_pair_used(self):
        # In A ... A Y B only the closest pair of references is used
        # (footnote 1), so the later A gives distance 1, not 3.
        distances = as_dict(SequenceDistanceCalculator().process_all("AXAYB"))
        assert distances[("A", "B")] == 1


class TestLifetimeFigure1:
    """Definition 3 on the paper's exact Figure 1 sequence.

    {Ao, Bo, Bc, Co, Cc, Ac, Do, Dc}: distances A->B = A->C = 0,
    A->D = 3, B->C = 1, B->D = 2, C->D = 1; the reverse directions are
    undefined.
    """

    @pytest.fixture
    def distances(self):
        events = [
            Reference("A", RefKind.OPEN), Reference("B", RefKind.OPEN),
            Reference("B", RefKind.CLOSE), Reference("C", RefKind.OPEN),
            Reference("C", RefKind.CLOSE), Reference("A", RefKind.CLOSE),
            Reference("D", RefKind.OPEN), Reference("D", RefKind.CLOSE),
        ]
        return as_dict(LifetimeDistanceCalculator().process_events(events))

    def test_a_to_b_is_zero(self, distances):
        assert distances[("A", "B")] == 0

    def test_a_to_c_is_zero(self, distances):
        assert distances[("A", "C")] == 0

    def test_a_to_d_is_three(self, distances):
        assert distances[("A", "D")] == 3

    def test_b_to_c_is_one(self, distances):
        assert distances[("B", "C")] == 1

    def test_b_to_d_is_two(self, distances):
        assert distances[("B", "D")] == 2

    def test_c_to_d_is_one(self, distances):
        assert distances[("C", "D")] == 1

    def test_reverse_directions_undefined(self, distances):
        for pair in [("B", "A"), ("C", "A"), ("D", "A"),
                     ("C", "B"), ("D", "B"), ("D", "C")]:
            assert pair not in distances


class TestLifetimeSemantics:
    def test_header_files_all_distance_zero(self):
        # Compiling S with headers H1..Hn: S stays open throughout, so
        # every header is at distance 0 from S (section 3.1.1).
        calc = LifetimeDistanceCalculator()
        calc.open("S")
        observed = {}
        for header in ("H1", "H2", "H3", "H4"):
            observed.update({(a, b): d for a, b, d in calc.open(header)
                             if a == "S"})
            calc.close(header)
        assert observed == {("S", h): 0 for h in ("H1", "H2", "H3", "H4")}

    def test_point_reference_is_open_close(self):
        calc = LifetimeDistanceCalculator()
        calc.point_reference("A")
        assert not calc.is_open("A")
        distances = as_dict(calc.open("B"))
        assert distances[("A", "B")] == 1

    def test_lookback_window_drops_distant(self):
        calc = LifetimeDistanceCalculator(lookback_window=3)
        calc.point_reference("A")
        for index in range(5):
            calc.point_reference(f"X{index}")
        distances = as_dict(calc.open("B"))
        assert ("A", "B") not in distances          # beyond the window
        assert ("X4", "B") in distances             # within the window

    def test_open_file_beyond_window_still_zero(self):
        calc = LifetimeDistanceCalculator(lookback_window=3)
        calc.open("S")                               # stays open
        for index in range(10):
            calc.point_reference(f"X{index}")
        distances = as_dict(calc.open("B"))
        assert distances[("S", "B")] == 0

    def test_compensation_emitted_once_at_age_out(self):
        # Regression (section 3.1.3): the over-window distance used to
        # be dropped entirely, leaving the neighbor store's compensation
        # rule dead.  It is now emitted exactly once, at the open that
        # finds the entry aged out, and the entry is pruned afterwards.
        calc = LifetimeDistanceCalculator(lookback_window=3)
        calc.point_reference("A")                   # index 1
        calc.point_reference("X0")                  # index 2, d(A)=1
        calc.point_reference("X1")                  # index 3, d(A)=2
        calc.point_reference("X2")                  # index 4, d(A)=3
        distances = as_dict(calc.open("X3"))        # index 5, d(A)=4 > M
        assert distances[("A", "X3")] == 4          # emitted, over-window
        calc.close("X3")
        # A is pruned: no further emissions for it, ever.
        assert ("A", "X4") not in as_dict(calc.open("X4"))
        assert calc.tracked_files <= 5

    def test_seed_mode_skips_over_window_pairs(self):
        # prune=False, compensate=False reproduces the historical
        # behaviour: over-window pairs silently dropped, nothing pruned.
        calc = LifetimeDistanceCalculator(lookback_window=3, prune=False,
                                          compensate=False)
        calc.point_reference("A")
        for index in range(5):
            calc.point_reference(f"X{index}")
        distances = as_dict(calc.open("B"))
        assert ("A", "B") not in distances
        assert calc.tracked_files == 7              # nothing forgotten

    def test_pruning_bounds_tracked_state(self):
        calc = LifetimeDistanceCalculator(lookback_window=10)
        for index in range(500):
            calc.point_reference(f"F{index}")
        # Only the window (plus the newest open) can remain tracked.
        assert calc.tracked_files <= 11

    def test_reopened_file_re_enters_window(self):
        calc = LifetimeDistanceCalculator(lookback_window=3)
        calc.point_reference("A")
        for index in range(5):
            calc.point_reference(f"X{index}")       # A aged out and pruned
        calc.point_reference("A")                   # fresh open re-keys A
        distances = as_dict(calc.open("B"))
        assert distances[("A", "B")] == 1

    def test_rename_sums_open_counts(self):
        # Regression: renaming over an open file used to overwrite the
        # destination's open count with the source's, losing open state.
        calc = LifetimeDistanceCalculator()
        calc.open("old")
        calc.open("old")
        calc.open("new")
        calc.rename("old", "new")
        assert calc.is_open("new")
        calc.close("new")
        calc.close("new")
        assert calc.is_open("new")                  # 3 opens carried over
        calc.close("new")
        assert not calc.is_open("new")

    def test_rename_of_closed_file_keeps_destination_open(self):
        calc = LifetimeDistanceCalculator()
        calc.open("new")
        calc.point_reference("old")                 # old is closed
        calc.rename("old", "new")
        assert calc.is_open("new")

    def test_unbalanced_close_tolerated(self):
        calc = LifetimeDistanceCalculator()
        calc.close("never-opened")                  # no exception

    def test_forget_removes_state(self):
        calc = LifetimeDistanceCalculator()
        calc.point_reference("A")
        calc.forget("A")
        assert as_dict(calc.open("B")) == {}

    def test_clone_independent(self):
        calc = LifetimeDistanceCalculator()
        calc.point_reference("A")
        child = calc.clone()
        child.point_reference("B")
        distances = as_dict(calc.open("C"))
        assert ("B", "C") not in distances

    def test_merge_adopts_child_files(self):
        parent = LifetimeDistanceCalculator()
        parent.point_reference("P")
        child = parent.clone()
        base = child.opens_processed
        child.point_reference("K")
        parent.merge_from(child, since=base)
        distances = as_dict(parent.open("Q"))
        assert ("K", "Q") in distances              # child's file visible

    def test_merge_skips_inherited_entries(self):
        parent = LifetimeDistanceCalculator()
        parent.point_reference("P")
        child = parent.clone()
        base = child.opens_processed
        recency_before = parent._last_open_index["P"]
        parent.merge_from(child, since=base)
        assert parent._last_open_index["P"] == recency_before


class TestDistanceSummary:
    def test_geometric_mean_favors_small(self):
        # The paper's example: 1, 1, 1498 should look much closer than
        # a constant 500 (section 3.1.2).
        close = DistanceSummary()
        for distance in (1, 1, 1498):
            close.add(distance)
        constant = DistanceSummary()
        for distance in (500, 500, 500):
            constant.add(distance)
        assert close.geometric_mean() < constant.geometric_mean()
        assert close.arithmetic_mean() == pytest.approx(constant.arithmetic_mean())

    def test_zero_distances(self):
        summary = DistanceSummary()
        summary.add(0)
        summary.add(0)
        assert summary.geometric_mean() == pytest.approx(0.0)

    def test_empty_summary_is_infinite(self):
        assert DistanceSummary().geometric_mean() == math.inf
        assert DistanceSummary().arithmetic_mean() == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DistanceSummary().add(-1)

    def test_constant_sequence_equals_value(self):
        summary = DistanceSummary()
        for _ in range(5):
            summary.add(7.0)
        assert summary.geometric_mean() == pytest.approx(7.0)
        assert summary.arithmetic_mean() == pytest.approx(7.0)

    def test_last_update_tracked(self):
        summary = DistanceSummary()
        summary.add(1, now=10)
        summary.add(1, now=25)
        assert summary.last_update == 25

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_geometric_never_exceeds_arithmetic(self, values):
        summary = DistanceSummary()
        for value in values:
            summary.add(value)
        # AM-GM inequality carries over to the log1p formulation.
        assert summary.geometric_mean() <= summary.arithmetic_mean() + 1e-6

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_means_bounded_by_extremes(self, values):
        summary = DistanceSummary()
        for value in values:
            summary.add(value)
        low = min(values) * (1 - 1e-9) - 1e-9
        high = max(values) * (1 + 1e-9) + 1e-9
        assert low <= summary.geometric_mean() <= high


_file_names = st.lists(st.sampled_from("ABCDEFG"), min_size=2, max_size=40)


class TestLifetimeProperties:
    @given(_file_names)
    def test_distances_nonnegative(self, sequence):
        calc = LifetimeDistanceCalculator()
        for _, _, distance in calc.process_events(opens(sequence)):
            assert distance >= 0

    @given(_file_names)
    def test_point_sequence_matches_sequence_definition(self, sequence):
        # With strict open/close pairs and no overlap, lifetime distance
        # (in opens) equals sequence distance (in references) + 1 when
        # positive, because Definition 3 counts the open of B itself.
        lifetime = as_dict(LifetimeDistanceCalculator().process_events(opens(sequence)))
        seq = as_dict(SequenceDistanceCalculator().process_all(sequence))
        for pair, distance in lifetime.items():
            assert distance == seq[pair] + 1

    @given(_file_names)
    def test_distance_to_latest_open_is_one(self, sequence):
        # Immediately consecutive distinct point references are at
        # lifetime distance 1.
        calc = LifetimeDistanceCalculator()
        previous = None
        for name in sequence:
            distances = as_dict(calc.open(name))
            if previous is not None and previous != name:
                assert distances[(previous, name)] == 1
            calc.close(name)
            previous = name
