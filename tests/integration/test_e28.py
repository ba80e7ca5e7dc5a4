"""E28 integration: the radix curve, its CIs, and EXPLAIN ANALYZE.

Pins the cache-conscious-execution acceptance criteria end to end:

- the out-of-cache radix sweet spot beats the plain hash baseline with
  a bootstrap CI that excludes 1.0x on simulated time;
- the in-cache curve never shows a (significant) radix win —
  partitioning a cache-resident build is pure overhead;
- EXPLAIN ANALYZE of the hinted radix plan renders partition counts
  and is byte-identical across seeded reruns.
"""

import pytest

from repro.db import Engine, EngineConfig
from repro.experiments.e28_cache import (
    E28_SQL,
    REGIME_SIZES,
    _join_database,
    run_e28,
)
from repro.hardware.cache import CacheModel
from tests.integration import sim_digest


@pytest.fixture(scope="module")
def result():
    return run_e28(seed=7, wall_clock=False)


class TestRadixCurve:
    def test_out_of_cache_sweet_spot_is_significant(self, result):
        best = result.best("out_of_cache")
        assert best.bits > 0
        assert best.speedup.low > 1.0, (
            f"out-of-cache radix CI "
            f"[{best.speedup.low:.3f}, {best.speedup.high:.3f}] "
            "does not exclude 1.0x")
        assert best.speedup_min > 1.0

    def test_curve_has_a_sweet_spot_not_a_monotone(self, result):
        """More bits must eventually hurt: the deepest level is worse
        than the sweet spot (per-partition setup dominates)."""
        points = result.points("out_of_cache")
        best = result.best("out_of_cache")
        deepest = points[-1]
        assert deepest.bits > best.bits
        assert deepest.speedup.mean < best.speedup.mean

    def test_in_cache_radix_never_wins(self, result):
        for point in result.points("in_cache"):
            if point.bits == 0:
                continue
            assert point.speedup.high < 1.0, (
                f"in-cache bits={point.bits} speedup CI reaches "
                f"{point.speedup.high:.3f}x — partitioning a "
                "cache-resident build should be pure overhead")

    def test_baseline_rows_are_flat_one(self, result):
        for regime in REGIME_SIZES:
            base = result.point(regime, 0)
            assert base.speedup.low <= 1.0 <= base.speedup.high

    def test_format_prints_curve_and_sweet_spots(self, result):
        text = result.format()
        assert "sweet spot out_of_cache" in text
        assert "speedup vs bits=0" in text
        assert "self-audit" in text

    def test_simulated_numbers_pinned(self, result):
        """Measured times and the whole radix curve with its CIs."""
        numbers = (result.report.results.to_csv(),
                   [(p.regime, p.bits, p.median_ms,
                     (p.speedup.mean, p.speedup.low, p.speedup.high),
                     p.speedup_min) for p in result.curve],
                   dict(result.sweet_spots))
        assert sim_digest(numbers) == (
            "08a53797c8f282dca84b7a02d2802abb"
            "f6568c0eb707fff8df56f98db7b126e8")


class TestExplainAnalyzeActuals:
    def _engine(self):
        n_probe, n_build = REGIME_SIZES["out_of_cache"]
        return Engine(
            _join_database(n_probe, n_build, seed=7),
            EngineConfig(executor="vectorized", optimizer="cost",
                         cache_model=CacheModel.tutorial_laptop()))

    def test_partition_counts_rendered(self):
        text = self._engine().explain_analyze(E28_SQL)
        assert "RadixHashJoin" in text
        assert "radix_bits=" in text
        assert "partitions=" in text

    def test_byte_identical_across_seeded_reruns(self):
        first = self._engine().explain_analyze(E28_SQL)
        second = self._engine().explain_analyze(E28_SQL)
        assert first == second
