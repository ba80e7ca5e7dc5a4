"""Tests for the noise-aware speedup analysis (Touati-style)."""

import importlib

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measurement import (
    PickRule,
    bootstrap_speedup_ci,
    protocol_estimate,
    significant_regression,
    speedup,
)


class TestProtocolEstimate:
    def test_min_protocol(self):
        # A rule's value string names the same rule.
        for rule in (PickRule.MIN, "min"):
            assert protocol_estimate([3.0, 1.0, 2.0], rule) == 1.0

    def test_median_protocol_odd(self):
        assert protocol_estimate([3.0, 1.0, 2.0], PickRule.MEDIAN) == 2.0

    def test_median_protocol_even_is_the_true_median(self):
        assert protocol_estimate([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_unknown_protocol(self):
        for rule in (PickRule.MEAN, PickRule.LAST, "mean", "bogus"):
            with pytest.raises(MeasurementError, match="unknown protocol"):
                protocol_estimate([1.0], rule)

    def test_empty_sample(self):
        with pytest.raises(MeasurementError, match="empty"):
            protocol_estimate([])

    def test_nonpositive_rejected(self):
        with pytest.raises(MeasurementError, match="positive"):
            protocol_estimate([1.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(MeasurementError, match="non-finite"):
            protocol_estimate([1.0, float("nan")])


class TestBootstrapCI:
    def test_seeded_reruns_identical(self):
        rng = np.random.default_rng(3)
        a = (0.01 + rng.normal(0, 0.001, 20)).clip(1e-6).tolist()
        b = (0.012 + rng.normal(0, 0.001, 20)).clip(1e-6).tolist()
        first = bootstrap_speedup_ci(a, b, n_boot=300)
        second = bootstrap_speedup_ci(a, b, n_boot=300)
        assert (first.low, first.high) == (second.low, second.high)

    def test_rule_value_gives_the_same_interval(self):
        rng = np.random.default_rng(3)
        a = (0.01 + rng.normal(0, 0.001, 12)).clip(1e-6).tolist()
        b = (0.012 + rng.normal(0, 0.001, 12)).clip(1e-6).tolist()
        assert bootstrap_speedup_ci(a, b, protocol="median", seed=9,
                                    n_boot=300) == \
            bootstrap_speedup_ci(a, b, protocol=PickRule.MEDIAN, seed=9,
                                 n_boot=300)

    def test_interval_brackets_the_point(self):
        rng = np.random.default_rng(4)
        a = (0.01 + rng.normal(0, 0.0005, 30)).clip(1e-6).tolist()
        b = (0.02 + rng.normal(0, 0.0005, 30)).clip(1e-6).tolist()
        ci = bootstrap_speedup_ci(a, b, n_boot=300)
        assert ci.low <= ci.mean <= ci.high
        assert ci.mean == pytest.approx(speedup(a, b))
        assert ci.high < 1.0  # b is clearly slower

    def test_bad_confidence(self):
        with pytest.raises(MeasurementError, match="confidence"):
            bootstrap_speedup_ci([1.0, 2.0], [1.0, 2.0],
                                 confidence=1.5)


def _timings(n, step, base):
    """*n* distinct-ish timings in a fixed pattern."""
    return [base + (i * step % 101) / 100 for i in range(n)]


class TestBootstrapPinned:
    """Intervals pinned to the digit.  Each resample draws what
    ``rng.choice`` draws, base then candidate, however many resamples
    are estimated at once."""

    #: ``(n_base, n_candidate, rule, low, high)`` at seed 7.
    PINNED = [
        (1, 1, PickRule.MIN, 1.25, 1.25),
        (1, 1, PickRule.MEDIAN, 1.25, 1.25),
        (1, 6, PickRule.MIN, 1.1111111111111112, 1.25),
        (1, 6, PickRule.MEDIAN, 0.7117437722419929, 1.212121212121212),
        (2, 3, PickRule.MIN, 1.0300751879699248, 1.7125000000000001),
        (2, 3, PickRule.MEDIAN, 0.7518796992481203, 1.7125000000000001),
        (5, 4, PickRule.MIN, 0.7518796992481203, 1.7125000000000001),
        (5, 4, PickRule.MEDIAN, 0.7971014492753624, 1.8375),
        (12, 12, PickRule.MIN, 1.0526315789473684, 1.4117647058823528),
        (12, 12, PickRule.MEDIAN, 0.8856088560885609, 1.689099099099098),
        (24, 7, PickRule.MIN, 1.1111111111111112, 1.375),
        (24, 7, PickRule.MEDIAN, 0.9891202190258255, 1.8470588235294114),
    ]

    @pytest.mark.parametrize("n_base, n_cand, rule, low, high", PINNED)
    def test_interval_pinned(self, n_base, n_cand, rule, low, high):
        ci = bootstrap_speedup_ci(_timings(n_base, 37, 1.0),
                                  _timings(n_cand, 53, 0.8),
                                  protocol=rule, seed=7)
        assert (ci.low, ci.high) == (low, high)

    @pytest.mark.parametrize("rule", [PickRule.MIN, PickRule.MEDIAN])
    def test_block_size_does_not_change_the_interval(self, rule,
                                                     monkeypatch):
        module = importlib.import_module("repro.measurement.speedup")
        base, cand = _timings(31, 37, 1.0), _timings(30, 53, 0.8)
        whole = bootstrap_speedup_ci(base, cand, protocol=rule, n_boot=501)
        # Two resamples a block; the last block holds one.
        monkeypatch.setattr(module, "_BLOCK_VALUES", 2 * 31 + 1)
        blocked = bootstrap_speedup_ci(base, cand, protocol=rule,
                                       n_boot=501)
        assert blocked == whole


class TestSignificantRegression:
    def test_identical_constants_never_flag(self):
        verdict = significant_regression([0.01] * 10, [0.01] * 10,
                                         n_boot=100)
        assert not verdict.regression
        assert verdict.p_value == 1.0
        assert verdict.speedup == 1.0

    def test_detects_injected_30pct_regression(self):
        rng = np.random.default_rng(5)
        base = (0.01 + rng.normal(0, 0.0005, 25)).clip(1e-6).tolist()
        slow = [v * 1.30 for v in base]
        verdict = significant_regression(base, slow, n_boot=300)
        assert verdict.regression
        assert verdict.p_value < 0.05
        assert verdict.speedup < 0.85

    def test_speedups_never_flag(self):
        rng = np.random.default_rng(6)
        base = (0.01 + rng.normal(0, 0.0005, 25)).clip(1e-6).tolist()
        fast = [v * 0.5 for v in base]
        verdict = significant_regression(base, fast, n_boot=300)
        assert not verdict.regression
        assert verdict.speedup > 1.5

    def test_small_true_effect_below_floor_passes(self):
        """Statistically detectable but practically tiny: no flag."""
        rng = np.random.default_rng(7)
        base = (0.0100 + rng.normal(0, 1e-5, 40)).clip(1e-6).tolist()
        slow = [v * 1.02 for v in base]  # 2% < 5% min_effect
        verdict = significant_regression(base, slow, min_effect=0.05,
                                         n_boot=300)
        assert verdict.p_value < 0.05  # the shift IS detectable...
        assert not verdict.regression  # ...but below the effect floor

    def test_false_positive_rate_bounded_by_alpha(self):
        """Seeded hypothesis check: identically distributed samples
        must not flag at alpha=0.05 more than ~5% of the time."""
        flagged = 0
        trials = 200
        for i in range(trials):
            rng = np.random.default_rng(1000 + i)
            a = (0.01 + rng.normal(0, 0.001, 15)).clip(1e-6).tolist()
            b = (0.01 + rng.normal(0, 0.001, 15)).clip(1e-6).tolist()
            if significant_regression(a, b, n_boot=50).regression:
                flagged += 1
        # alpha=0.05 bounds the MW test alone; the min-effect floor
        # only removes flags, so 7% leaves margin for trial noise.
        assert flagged / trials <= 0.07

    def test_format_mentions_verdict(self):
        ok = significant_regression([0.01] * 5, [0.01] * 5, n_boot=50)
        assert ok.format().startswith("ok:")
        assert "(median-of-k," in ok.format()
        bad = significant_regression(
            [0.010, 0.0101, 0.0099, 0.0102, 0.0098] * 4,
            [0.015, 0.0151, 0.0149, 0.0152, 0.0148] * 4, n_boot=50)
        assert bad.format().startswith("REGRESSION:")
        assert bad.slowdown_pct > 0
