"""Tests for descriptive statistics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.simulation.stats import summarize


class TestSummarize:
    def test_basic(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0

    def test_odd_median(self):
        assert summarize([5, 1, 3]).median == 3

    def test_single_value(self):
        stats = summarize([7.0])
        assert stats.std == 0.0
        assert stats.mean == 7.0

    def test_empty(self):
        stats = summarize([])
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_sample_std(self):
        stats = summarize([2.0, 4.0])
        assert stats.std == pytest.approx(math.sqrt(2))

    def test_unsorted_input(self):
        assert summarize([9, 1, 5]).minimum == 1

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=100))
    def test_bounds_invariants(self, values):
        stats = summarize(values)
        assert stats.minimum <= stats.median <= stats.maximum
        # Floating-point summation can land the mean a few ulps outside
        # [min, max] (e.g. three 0.7s sum to 2.0999999999999996), so
        # both bounds carry a tolerance scaled to the magnitude.
        slack = 1e-9 * max(1.0, abs(stats.minimum), abs(stats.maximum))
        assert stats.minimum - slack <= stats.mean <= stats.maximum + slack
        assert stats.std >= 0

