"""E25 integration: optimizer speedup, plan quality, q-error scatter.

Pins the ISSUE 6 acceptance criteria end to end: the 2^3 factorial
names ``optimizer`` as a significant effect with a CI-bounded median
heuristic/cost speedup of at least 2x, the unhinted cost-based plan
stays within 1.5x of the best enumerated join order (median across
queries), the est-vs-actual q-error scatter exports as a JSON
artifact, and the sharded campaign is byte-identical for every
``jobs`` value.
"""

import json

import pytest

from repro.experiments.e25_optimizer import (
    analyze_campaign,
    collect_qerrors,
    export_artifacts,
    explore_plan_space,
    run_e25,
    run_e25_campaign,
)
from tests.integration import sim_digest


@pytest.fixture(scope="module")
def result():
    return run_e25(seed=7)


@pytest.fixture(scope="module")
def campaign_pair():
    sequential = run_e25_campaign(seed=7, jobs=1)
    parallel = run_e25_campaign(seed=7, jobs=3)
    return sequential, parallel


class TestSpeedupAndEffects:
    def test_optimizer_effect_is_significant(self, result):
        assert "optimizer" in result.analysis.significant_effects()

    def test_median_speedup_ci_clears_2x(self, result):
        assert result.speedup.low >= 2.0, (
            f"cost-based speedup CI lower bound "
            f"{result.speedup.low:.2f}x below the 2x floor")
        assert result.speedup.mean >= 2.0

    def test_every_configuration_speeds_up(self, result):
        assert result.speedup_rows
        for label, value in result.speedup_rows:
            assert value > 1.0, f"{label}: {value:.2f}x"

    def test_format_mentions_the_headlines(self, result):
        text = result.format()
        assert "overall median speedup" in text
        assert "enumerated plan space" in text
        assert "median optimality ratio" in text
        assert "q-error" in text

    def test_simulated_numbers_pinned(self, result):
        """Measured times, speedups, the plan space and the q-errors."""
        speedup = result.speedup
        numbers = (result.report.results.to_csv(),
                   (speedup.mean, speedup.low, speedup.high),
                   result.speedup_rows,
                   [(space.query, space.naive_s, space.chosen_s,
                     space.chosen_order,
                     [(o.order, o.simulated_s, o.chosen)
                      for o in space.orders])
                    for space in result.plan_spaces],
                   [(q.query, q.operator, q.est_rows, q.actual_rows,
                     q.q_error) for q in result.qerrors])
        assert sim_digest(numbers) == (
            "53c8249299f9f71e8a6e1f1993bda739"
            "f95ee60930e19814beb89a1fbfa79719")


class TestPlanQuality:
    def test_chosen_within_1_5x_of_best(self, result):
        assert result.median_quality <= 1.5
        for space in result.plan_spaces:
            assert space.quality <= 1.5, (
                f"{space.query}: chosen plan {space.quality:.2f}x "
                f"slower than best enumerated")

    def test_optimizer_avoids_the_textual_order(self, result):
        for space in result.plan_spaces:
            assert space.chosen_order[0] != "fact", (
                f"{space.query}: optimizer kept the fact table first")

    def test_worst_order_is_materially_worse(self, result):
        for space in result.plan_spaces:
            assert space.worst_avoidance > 1.5, (
                f"{space.query}: plan space too flat "
                f"({space.worst_avoidance:.2f}x) to exercise ordering")

    def test_exactly_the_connected_orders_run(self, result):
        for space in result.plan_spaces:
            assert len(space.orders) == 4  # star: 4 connected orders
            assert sum(t.chosen for t in space.orders) == 1

    def test_loop_executor_agrees_on_plan_quality(self):
        spaces = explore_plan_space(n_fact=2_000, executor="loop")
        qualities = sorted(s.quality for s in spaces)
        assert qualities[len(qualities) // 2] <= 1.5


class TestQErrors:
    def test_scatter_covers_every_query(self, result):
        assert {p.query for p in result.qerrors} == {
            "region_eq", "region_cat", "region_range", "region_amount"}

    def test_qerrors_are_well_formed(self, result):
        for point in result.qerrors:
            assert point.q_error >= 1.0
            assert point.est_rows >= 0.0
            assert point.actual_rows >= 0

    def test_estimates_are_usable_in_the_median(self, result):
        ordered = sorted(p.q_error for p in result.qerrors)
        assert ordered[len(ordered) // 2] <= 2.0

    def test_deterministic(self):
        first = collect_qerrors(n_fact=2_000)
        second = collect_qerrors(n_fact=2_000)
        assert first == second

    def test_artifact_export(self, result, tmp_path):
        paths = export_artifacts(result, str(tmp_path))
        assert len(paths) == 2
        with open(paths[0], encoding="utf-8") as handle:
            scatter = json.load(handle)
        assert len(scatter) == len(result.qerrors)
        assert {"query", "operator", "est_rows", "actual_rows",
                "q_error"} <= set(scatter[0])
        with open(paths[1], encoding="utf-8") as handle:
            summary = json.load(handle)
        assert summary["median_quality"] <= 1.5
        assert summary["speedup"]["median"] >= 2.0


class TestCampaignJobsInvariance:
    def test_result_csv_byte_identical(self, campaign_pair):
        sequential, parallel = campaign_pair
        assert parallel.results.to_csv() == sequential.results.to_csv()

    def test_documentation_byte_identical(self, campaign_pair):
        sequential, parallel = campaign_pair
        assert parallel.documentation() == sequential.documentation()

    def test_campaign_analysis_matches_sequential_shape(self,
                                                        campaign_pair):
        sequential, __ = campaign_pair
        analyzed = analyze_campaign(sequential)
        assert "optimizer" in analyzed.analysis.significant_effects()
        assert analyzed.speedup.low >= 2.0
