"""Tests for measurement statistics and result sets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MeasurementError
from repro.measurement import (
    ResultSet,
    coefficient_of_variation,
    confidence_interval,
    detect_outliers,
    geometric_mean,
    percentiles,
    summarize,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == pytest.approx(2.5)

    def test_single_value(self):
        s = summarize([5.0])
        assert s.stddev == 0.0
        assert s.stderr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            summarize([])

    @given(st.lists(finite_floats, min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_bounds(self, values):
        s = summarize(values)
        eps = 1e-9 * (1 + abs(s.mean))  # mean can differ by one ULP
        assert s.minimum - eps <= s.mean <= s.maximum + eps
        assert s.minimum <= s.median <= s.maximum


class TestConfidenceInterval:
    def test_contains_mean(self):
        ci = confidence_interval([10, 12, 11, 13, 9])
        assert ci.low <= ci.mean <= ci.high
        assert ci.contains(ci.mean)

    def test_single_observation_degenerate(self):
        ci = confidence_interval([10.0])
        assert ci.low == ci.high == ci.mean

    def test_higher_confidence_wider(self):
        data = [10, 12, 11, 13, 9, 14]
        narrow = confidence_interval(data, 0.80)
        wide = confidence_interval(data, 0.99)
        assert wide.half_width > narrow.half_width

    def test_bad_confidence(self):
        with pytest.raises(MeasurementError):
            confidence_interval([1, 2], confidence=0)

    def test_overlap(self):
        a = confidence_interval([10, 11, 12])
        b = confidence_interval([11, 12, 13])
        assert a.overlaps(b)
        c = confidence_interval([100, 101, 102])
        assert not a.overlaps(c)


class TestOutliersAndAverages:
    def test_detect_outliers(self):
        values = [10.0] * 20 + [1000.0]
        assert detect_outliers(values) == (20,)

    def test_no_outliers_in_tiny_sample(self):
        assert detect_outliers([1.0, 100.0]) == ()

    def test_constant_sample(self):
        assert detect_outliers([5.0] * 10) == ()

    def test_coefficient_of_variation(self):
        assert coefficient_of_variation([10, 10, 10]) == 0.0
        with pytest.raises(MeasurementError):
            coefficient_of_variation([1, -1])

    def test_geometric_mean_of_ratios(self):
        # gmean(2, 0.5) == 1: a speedup and an equal slowdown cancel.
        assert geometric_mean([2.0, 0.5]) == pytest.approx(1.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(MeasurementError):
            geometric_mean([1.0, 0.0])


class TestResultSet:
    def test_add_and_columns(self):
        rs = ResultSet("demo")
        rs.add({"sf": 1, "q": "Q1"}, {"ms": 100.0})
        rs.add({"sf": 2, "q": "Q1"}, {"ms": 210.0})
        assert len(rs) == 2
        assert rs.column("sf") == [1, 2]
        assert rs.column("ms") == [100.0, 210.0]
        assert rs.series("sf", "ms") == [(1, 100.0), (2, 210.0)]

    def test_schema_enforced(self):
        rs = ResultSet()
        rs.add({"a": 1}, {"m": 1.0})
        with pytest.raises(MeasurementError):
            rs.add({"b": 1}, {"m": 1.0})
        with pytest.raises(MeasurementError):
            rs.add({"a": 1}, {"other": 1.0})

    def test_overlapping_names_rejected(self):
        rs = ResultSet()
        with pytest.raises(MeasurementError):
            rs.add({"x": 1}, {"x": 2.0})

    def test_filter_and_lookup(self):
        rs = ResultSet()
        for sf in (1, 2):
            for mode in ("hot", "cold"):
                rs.add({"sf": sf, "mode": mode}, {"ms": sf * 10.0 +
                                                  (5 if mode == "cold" else 0)})
        assert len(rs.filter(mode="hot")) == 2
        assert rs.lookup("ms", sf=2, mode="cold") == 25.0
        with pytest.raises(MeasurementError):
            rs.lookup("ms", mode="hot")  # two matches

    def test_unknown_column(self):
        rs = ResultSet()
        rs.add({"a": 1}, {"m": 1.0})
        with pytest.raises(MeasurementError):
            rs.column("zzz")

    def test_csv_round_trip(self, tmp_path):
        rs = ResultSet("rt")
        rs.add({"sf": 1, "q": "Q1"}, {"ms": 13.666, "rows": 4.0})
        rs.add({"sf": 2, "q": "Q16"}, {"ms": 15.0, "rows": 8.0})
        path = tmp_path / "out.csv"
        rs.to_csv(path)
        back = ResultSet.from_csv(path, metric_names=["ms", "rows"])
        assert len(back) == 2
        assert back.column("ms") == [13.666, 15.0]
        assert back.column("q") == ["Q1", "Q16"]
        assert back.column("sf") == [1, 2]

    def test_csv_uses_decimal_point(self):
        """Guards against the slide-212 locale corruption at the source."""
        rs = ResultSet()
        rs.add({"a": 1}, {"m": 13.666})
        text = rs.to_csv()
        assert "13.666" in text
        assert "13,666" not in text

    def test_from_csv_rejects_missing_metric(self):
        rs = ResultSet()
        rs.add({"a": 1}, {"m": 1.0})
        with pytest.raises(MeasurementError):
            ResultSet.from_csv(rs.to_csv(), metric_names=["nope"])


class TestPercentiles:
    def test_interpolated_levels(self):
        p = percentiles([1.0, 2.0, 3.0, 4.0])
        assert p.n == 4
        assert p.p50 == pytest.approx(2.5)
        assert p.p95 == pytest.approx(3.85)
        assert p.p99 == pytest.approx(3.97)
        assert p.maximum == 4.0

    def test_single_observation(self):
        p = percentiles([7.0])
        assert p.p50 == p.p95 == p.p99 == p.maximum == 7.0

    def test_two_observations_interpolate_the_median(self):
        p = percentiles([1.0, 3.0])
        assert p.p50 == pytest.approx(2.0)
        assert p.p99 == pytest.approx(2.98)

    def test_three_observations(self):
        p = percentiles([3.0, 1.0, 2.0])
        assert p.p50 == pytest.approx(2.0)
        assert p.maximum == 3.0

    def test_ties(self):
        p = percentiles([2.0, 2.0, 2.0, 2.0, 2.0])
        assert p.p50 == p.p95 == p.p99 == 2.0
        assert p.maximum == 2.0

    def test_unsorted_input(self):
        p = percentiles([9.0, 1.0, 5.0, 3.0, 7.0])
        assert p.p50 == pytest.approx(5.0)

    def test_rejects_nan(self):
        with pytest.raises(MeasurementError, match="NaN"):
            percentiles([1.0, float("nan"), 3.0])

    def test_rejects_empty_sample(self):
        with pytest.raises(MeasurementError, match="empty"):
            percentiles([])

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(MeasurementError, match="0, 100"):
            percentiles([1.0], levels=(50.0, 101.0))
        with pytest.raises(MeasurementError, match="one percentile"):
            percentiles([1.0], levels=())

    def test_custom_levels(self):
        p = percentiles([float(i) for i in range(1, 101)],
                        levels=(25.0, 75.0))
        assert p[25.0] == pytest.approx(25.75)
        assert p[75.0] == pytest.approx(75.25)

    def test_missing_level_raises(self):
        p = percentiles([1.0, 2.0])
        with pytest.raises(MeasurementError, match="not computed"):
            p[42.0]

    def test_format_and_to_dict(self):
        p = percentiles([1.0, 2.0, 3.0, 4.0])
        text = p.format(unit="ms", scale=1000.0)
        assert "p50=2500.00ms" in text
        assert "max=4000.00ms" in text
        d = p.to_dict()
        assert d["n"] == 4
        assert d["p50"] == pytest.approx(2.5)
        assert d["max"] == 4.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_ordering_invariants(self, values):
        p = percentiles(values)
        assert p.p50 <= p.p95 <= p.p99 <= p.maximum
        assert min(values) <= p.p50
        assert p.maximum == max(values)
