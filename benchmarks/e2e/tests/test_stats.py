"""The tail-percentile helper and the spread arithmetic."""

import pytest

from benchmarks.e2e.stats import (TAIL_SAMPLES, percentile, quartiles,
                                  relative_spread, tail)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99.9) == 100
    assert percentile([], 50) == 0.0


@pytest.mark.parametrize("count,expected", [
    (9, None),        # not even ten samples beyond the median
    (19, None),
    (20, 50.0),       # exactly ten beyond p50
    (39, 50.0),
    (40, 75.0),
    (100, 90.0),      # ten beyond p90, five beyond p95
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_reports_highest_percentile_with_ten_beyond(count, expected):
    samples = [float(value) for value in range(count)]
    result = tail(samples)
    assert result.samples == count
    assert result.percentile == expected
    if expected is not None:
        assert count - round(count * expected / 100) >= TAIL_SAMPLES
        assert result.value == percentile(samples, expected)


def test_tail_ignores_input_order():
    assert tail([5.0, 1.0, 3.0] * 10) == tail(sorted([5.0, 1.0, 3.0] * 10))


def test_quartiles_and_spread():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    low, mid, high = quartiles(values)
    assert mid == pytest.approx(14.5)
    assert relative_spread(values) == pytest.approx((high - low) / mid)
    assert quartiles([3.0]) == [3.0, 3.0, 3.0]
    assert relative_spread([3.0]) == 0.0
