"""Tests for parameter validation (paper section 4.9)."""

import dataclasses

import pytest

from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters

FLOAT_FIELDS = [spec.name for spec in dataclasses.fields(SeerParameters)
                if spec.type in ("float", float)]


class TestDefaults:
    def test_paper_values(self):
        # The published constants: n = 20 neighbors, M = 100 lookback,
        # 1 % frequent-file threshold, 15-minute disconnection squash.
        assert DEFAULT_PARAMETERS.max_neighbors == 20
        assert DEFAULT_PARAMETERS.lookback_window == 100
        assert DEFAULT_PARAMETERS.frequent_file_fraction == pytest.approx(0.01)
        assert DEFAULT_PARAMETERS.minimum_disconnection_seconds == 15 * 60

    def test_kn_exceeds_kf(self):
        assert DEFAULT_PARAMETERS.kn > DEFAULT_PARAMETERS.kf

    def test_geometric_mean_default(self):
        assert DEFAULT_PARAMETERS.use_geometric_mean


class TestValidation:
    def test_kn_must_exceed_kf(self):
        with pytest.raises(ValueError):
            SeerParameters(kn=2, kf=3)

    def test_kn_equal_kf_rejected(self):
        with pytest.raises(ValueError):
            SeerParameters(kn=3, kf=3)

    def test_max_neighbors_positive(self):
        with pytest.raises(ValueError):
            SeerParameters(max_neighbors=0)

    def test_lookback_positive(self):
        with pytest.raises(ValueError):
            SeerParameters(lookback_window=0)

    def test_frequent_fraction_range(self):
        with pytest.raises(ValueError):
            SeerParameters(frequent_file_fraction=0.0)
        with pytest.raises(ValueError):
            SeerParameters(frequent_file_fraction=1.5)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_rejected(self, name, value):
        # NaN fails every comparison, so kf_fraction=nan once passed the
        # kn_fraction > kf_fraction check; most fields had no check.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DEFAULT_PARAMETERS.with_changes(**{name: float(value)})


class TestWithChanges:
    def test_returns_modified_copy(self):
        changed = DEFAULT_PARAMETERS.with_changes(max_neighbors=10)
        assert changed.max_neighbors == 10
        assert DEFAULT_PARAMETERS.max_neighbors == 20

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_PARAMETERS.max_neighbors = 5  # type: ignore[misc]

    def test_invalid_change_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMETERS.with_changes(kn=1, kf=1)
