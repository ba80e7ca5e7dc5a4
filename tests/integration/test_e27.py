"""E27: the cross-system study's acceptance criteria, CI-asserted.

The fair run must pass every pitfall check; the deliberately unfair
run (mismatched warm-up) must be caught; result sets must verify
row-for-row across all three backends.
"""

import json

import pytest

from repro.experiments.e27_cross_system import (
    FORCED_ORDERS,
    export_artifacts,
    run_e27,
    star_workload,
)
from tests.integration import sim_digest


@pytest.fixture(scope="module")
def result():
    return run_e27(n_fact=1200, warmup=1, repetitions=2)


class TestE27CrossSystem:
    def test_workload_spec_is_shared_and_forced(self):
        spec = star_workload()
        assert len(FORCED_ORDERS) >= 3
        for query in spec.queries:
            assert query.forced_orders == FORCED_ORDERS

    def test_all_three_systems_ran_one_spec(self, result):
        expected = ("minidb-loop", "minidb-vectorized", "sqlite")
        assert result.fair.systems == expected
        assert result.unfair.systems == expected
        assert result.fair.workload == result.unfair.workload == "e27-star"

    def test_fair_run_passes_every_check(self, result):
        assert result.fair.is_fair, [c.format() for c in
                                     result.fair.warnings]
        assert len(result.fair.pitfalls) == 7

    def test_unfair_run_flags_at_least_two_pitfalls(self, result):
        assert len(result.unfair_flagged) >= 2
        assert {"stage-match", "warmup-match"} \
            <= set(result.unfair_flagged)

    def test_result_sets_equal_across_systems(self, result):
        assert result.fair.pitfall("result-equivalence").passed
        assert result.unfair.pitfall("result-equivalence").passed

    def test_forced_plan_shapes_verified_on_every_system(self, result):
        check = result.fair.pitfall("plan-shapes")
        assert check.passed, check.detail

    def test_speedup_cis_present_for_non_baseline(self, result):
        for name in ("minidb-vectorized", "sqlite"):
            ci = result.fair.summary(name).speedup_vs_baseline
            assert ci is not None
            assert ci.low <= ci.mean <= ci.high

    def test_format_tells_both_stories(self, result):
        text = result.format()
        assert "fair run" in text and "unfair run" in text
        assert "stage-match" in text

    def test_simulated_seconds_pinned(self, result):
        """The MiniDB backends' simulated time per cell and in total;
        wall-clock numbers are host noise and stay unpinned."""
        numbers = [([(m.system, m.query, m.order, m.simulated_s)
                     for m in report.measurements],
                    [(s.system, s.simulated_s) for s in report.summaries])
                   for report in (result.fair, result.unfair)]
        assert sim_digest(numbers) == (
            "629f6bf5be928932c1c7f438d08decd8"
            "c300b173b461fc04633e51df5b96f6f2")

    def test_export_artifacts(self, result, tmp_path):
        paths = export_artifacts(result, str(tmp_path))
        assert len(paths) == 1 and paths[0].endswith(
            "e27_cross_system.json")
        blob = json.loads(open(paths[0]).read())
        assert blob["fair"]["fair"] is True
        assert blob["unfair"]["fair"] is False
        assert {"stage-match", "warmup-match"} \
            <= set(blob["unfair_flagged"])
        assert len(blob["forced_orders"]) >= 3
