"""E23 integration: speedup floor, jobs-invariance, kernel spans.

Pins the ISSUE 5 acceptance criteria end to end: the 2^4 factorial
names ``executor`` as a significant effect with a CI-bounded median
speedup of at least 2x, the sharded campaign is byte-identical for
every ``jobs`` value, and the exported trace attributes execution time
to individual kernels.
"""

import pytest

from repro.experiments.e23_vectorized import (
    analyze_campaign,
    run_e23,
    run_e23_campaign,
)
from repro.obs.export import to_jsonl
from tests.integration import sim_digest

ROWS = {"rows_low": 1_000, "rows_high": 4_000}  # small, CI-friendly


@pytest.fixture(scope="module")
def result():
    return run_e23(seed=7, **ROWS)


@pytest.fixture(scope="module")
def campaign_pair():
    sequential = run_e23_campaign(seed=7, jobs=1, trace=True, **ROWS)
    parallel = run_e23_campaign(seed=7, jobs=4, trace=True, **ROWS)
    return sequential, parallel


class TestSpeedupAndEffects:
    def test_executor_effect_is_significant(self, result):
        assert "executor" in result.analysis.significant_effects()

    def test_executor_dominates_allocation_of_variation(self, result):
        variation = result.variation
        assert variation.fraction("executor") > \
            variation.fraction("error")
        assert variation.fraction("executor") > 0.10

    def test_median_speedup_ci_clears_2x(self, result):
        assert result.speedup.low >= 2.0, (
            f"vectorized speedup CI lower bound "
            f"{result.speedup.low:.2f}x below the 2x floor")
        assert result.speedup.mean >= 2.0

    def test_every_configuration_speeds_up(self, result):
        assert result.speedup_rows
        for label, value in result.speedup_rows:
            assert value > 1.0, f"{label}: {value:.2f}x"

    def test_format_mentions_the_headline(self, result):
        text = result.format()
        assert "overall median speedup" in text
        assert "allocation of variation" in text

    def test_simulated_numbers_pinned(self, result):
        """Every measured simulated time and every derived speedup."""
        speedup = result.speedup
        numbers = (result.report.results.to_csv(),
                   (speedup.mean, speedup.low, speedup.high),
                   result.speedup_rows,
                   [(label, (ci.mean, ci.low, ci.high), point)
                    for label, ci, point in result.speedup_cis])
        assert sim_digest(numbers) == (
            "8181ebbb74f373af905f6a2a4616db1d"
            "fcb47f045321e168a8cc6bdd879ebc0f")


class TestCampaignJobsInvariance:
    def test_result_csv_byte_identical(self, campaign_pair):
        sequential, parallel = campaign_pair
        assert parallel.results.to_csv() == sequential.results.to_csv()

    def test_documentation_byte_identical(self, campaign_pair):
        sequential, parallel = campaign_pair
        assert parallel.documentation() == sequential.documentation()

    def test_canonical_trace_byte_identical(self, campaign_pair):
        sequential, parallel = campaign_pair
        assert to_jsonl(parallel.trace) == to_jsonl(sequential.trace)

    def test_campaign_analysis_matches_sequential_shape(self,
                                                        campaign_pair):
        sequential, __ = campaign_pair
        analyzed = analyze_campaign(sequential, **ROWS)
        assert "executor" in analyzed.analysis.significant_effects()
        assert analyzed.speedup.low >= 2.0


class TestKernelSpans:
    def test_trace_attributes_time_to_kernels(self, campaign_pair):
        sequential, __ = campaign_pair
        kernel_spans = [s for s in sequential.trace.spans
                        if s.category == "kernel"]
        assert kernel_spans, "no kernel spans in the campaign trace"
        names = {s.name for s in kernel_spans}
        assert "kernel.join_match" in names
        assert "kernel.grouped_reduce" in names
        assert "kernel.dict_encode" in names

    def test_kernel_spans_survive_export(self, campaign_pair):
        sequential, __ = campaign_pair
        assert '"kernel.join_match"' in to_jsonl(sequential.trace)
