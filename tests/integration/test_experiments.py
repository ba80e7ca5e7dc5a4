"""Integration tests: every paper experiment reproduces its shape.

One test class per experiment E01-E20; assertions encode the
"reproduction fidelity targets" from DESIGN.md — exact numbers for the
worked arithmetic examples, qualitative shape (who wins, by roughly what
factor) for the simulated-hardware measurements.
"""

import pytest

from repro.db import Engine, EngineConfig
from repro.experiments import (
    run_e01, run_e02, run_e03, run_e04, run_e05, run_e06, run_e07,
    run_e08, run_e09, run_e10, run_e11, run_e12, run_e13, run_e14,
    run_e15, run_e16, run_e17, run_e18, run_e19, run_e20, run_e21,
)
from repro.workloads import generate_tpch, tpch_query
from tests.integration import sim_digest

SF = 0.004  # small scale factor keeps the whole module fast


class TestE01ServerClient:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e01(sf=SF)

    def test_user_not_above_real(self, result):
        for row in result.rows:
            assert row.server_user_ms <= row.server_real_ms + 1e-9

    def test_client_file_above_server_real(self, result):
        for row in result.rows:
            assert row.client_real_file_ms >= row.server_real_ms

    def test_terminal_slower_than_file(self, result):
        for row in result.rows:
            assert row.client_real_terminal_ms > row.client_real_file_ms

    def test_sink_gap_grows_with_result_size(self, result):
        q1, q16 = result.row(1), result.row(16)
        assert q16.result_bytes > q1.result_bytes
        assert q16.terminal_overhead_ms > q1.terminal_overhead_ms

    def test_format_prints_table(self, result):
        text = result.format()
        assert "srv user" in text and "cli term" in text


class TestE02HotCold:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e02(sf=SF)

    def test_cold_real_much_larger_than_hot_real(self, result):
        row = result.rows[0]
        # Paper: 13243 vs 3534 ms (3.7x); we accept the 2-25x band.
        assert 2.0 < row.cold_hot_real_ratio < 25.0

    def test_user_time_unaffected_by_cache_state(self, result):
        row = result.rows[0]
        assert row.cold_user_ms == pytest.approx(row.hot_user_ms, rel=0.05)

    def test_protocol_documented(self, result):
        assert "cold" in result.protocol_doc and "hot" in result.protocol_doc


class TestE03DbgOpt:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e03(sf=0.002)

    def test_all_22_queries_present(self, result):
        assert [p.query for p in result.points] == list(range(1, 23))

    def test_ratios_in_tutorial_band(self, result):
        # Slide 41's y-axis runs 1.0 .. 2.2.
        for point in result.points:
            assert 1.0 <= point.ratio <= 2.35

    def test_ratios_vary_by_query(self, result):
        ratios = result.ratios
        assert max(ratios) - min(ratios) > 0.1

    def test_dbg_never_faster(self, result):
        for point in result.points:
            assert point.dbg_ms >= point.opt_ms


class TestE04MemoryWall:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e04(n_items=50_000)

    def test_five_machines(self, result):
        assert result.machines == ("Sparc", "UltraSparc", "UltraSparcII",
                                   "Alpha", "R12000")

    def test_cpu_shrinks_total_does_not(self, result):
        assert result.cpu_component_speedup() > 8.0
        assert result.total_speedup() < 3.0

    def test_memory_flat(self, result):
        memory = result.memory_components
        assert max(memory) / min(memory) < 1.6

    def test_memory_dominates_late_machines(self, result):
        assert result.memory_components[-1] > 3 * result.cpu_components[-1]


class TestE05Profile:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e05(sf=SF)

    def test_tuple_engine_much_slower(self, result):
        assert result.tuple_over_column > 3.0

    def test_phases_present(self, result):
        for report in (result.column_profile, result.tuple_profile):
            assert set(report.phase_ms) == {"parse", "optimize", "execute"}

    def test_column_mode_dominated_by_operators_not_overhead(self, result):
        report = result.column_profile
        assert report.execute_ms > report.phase_ms["parse"]

    def test_simulated_profiles_pinned(self, result):
        """Every simulated phase and operator time of both profiles."""
        numbers = [(report.phase_ms,
                    [(op.operator, op.self_ms, op.actual_rows)
                     for op in report.operators])
                   for report in (result.column_profile,
                                  result.tuple_profile)]
        assert sim_digest(numbers) == (
            "83579e8c1a44d97f4d4215c0789e2d61"
            "6f56c82cd4971ed6e7c409aeeb2dcd87")

    def test_profile_and_trace_text_pinned(self, result):
        """The rendered profile text, its dict form and Q1's TRACE."""
        engine = Engine(generate_tpch(sf=SF, seed=42),
                        EngineConfig(executor="loop"))
        texts = [(report.format(), report.to_dict())
                 for report in (result.column_profile,
                                result.tuple_profile)]
        assert sim_digest(texts, engine.trace(tpch_query(1))) == (
            "f590e0d89ce3a8b732a053150d4bc40e"
            "26047c569676744066d9e69292106e8b")


class TestE06Interaction:
    def test_slide_values(self):
        result = run_e06()
        assert not result.table_a.has_interaction()
        assert result.table_b.has_interaction()
        assert result.table_b.interaction_magnitude() == 1.0
        assert "interaction" in result.format()


class TestE07DesignSizes:
    def test_slide_56_scenario(self):
        result = run_e07(level_counts=(10, 20, 25, 30, 40))
        assert result.size_of("full factorial") == 10 * 20 * 25 * 30 * 40
        assert result.size_of("simple (one-at-a-time)") == \
            1 + 9 + 19 + 24 + 29 + 39
        assert result.size_of("2^k (extremes)") == 32
        assert result.size_of("2^(k-2) fraction") == 8
        assert "experiments" in result.format()


class TestE08Orthogonal:
    def test_nine_of_eightyone(self):
        result = run_e08()
        assert result.n_experiments == 9
        assert result.full_factorial_size == 81
        assert result.balanced
        assert "Z80" in result.format()


class TestE09TwoTwo:
    def test_exact_paper_numbers(self):
        result = run_e09()
        assert result.manual == {"q0": 40.0, "qA": 20.0, "qB": 10.0,
                                 "qAB": 5.0}
        assert result.model.mean == 40.0
        assert result.model.effect("A") == 20.0
        assert result.model.effect("B") == 10.0
        assert result.model.effect("A", "B") == 5.0

    def test_sign_table_matches_slide_74(self):
        result = run_e09()
        assert list(result.sign_table.column("A")) == [-1, 1, -1, 1]
        assert list(result.sign_table.column("A:B")) == [1, -1, -1, 1]


class TestE10Allocation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e10()

    @pytest.mark.parametrize("metric,effect,expected", [
        ("T", "A", 17.2), ("T", "B", 77.0), ("T", "A:B", 5.8),
        ("N", "A", 20.0), ("N", "B", 80.0), ("N", "A:B", 0.0),
        ("R", "A", 10.9), ("R", "B", 87.8), ("R", "A:B", 1.3),
    ])
    def test_paper_percentages(self, result, metric, effect, expected):
        assert result.percentage(metric, effect) == \
            pytest.approx(expected, abs=0.15)

    def test_address_pattern_dominates_every_metric(self, result):
        for metric in ("T", "N", "R"):
            assert result.dominant_factor(metric) == "B"


class TestE11Fractional:
    def test_structure(self):
        result = run_e11()
        assert result.n_experiments == 8
        assert result.all_columns_zero_sum()
        assert result.all_columns_orthogonal()

    def test_first_row_matches_slide_103(self):
        table = run_e11().table
        assert [int(table.column(f)[0]) for f in "ABCDEFG"] == \
            [-1, -1, -1, 1, 1, 1, -1]


class TestE12Confounding:
    def test_paper_conclusion(self):
        result = run_e12()
        assert result.preferred == "a"
        assert result.design_abc.design_resolution == 4
        assert result.design_ab.design_resolution == 3
        assert result.design_abc.are_confounded(("A", "D"), ("B", "C"))
        assert result.design_ab.are_confounded(("A",), ("B", "D"))


class TestE13Guidelines:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e13()

    @pytest.mark.parametrize("rule", [
        "max-curves", "max-bars", "max-slices", "units", "symbols",
        "zero-origin", "confidence-intervals", "histogram-cells",
        "aspect-ratio", "mixed-units",
    ])
    def test_every_planted_violation_caught(self, result, rule):
        assert result.caught(rule)

    def test_clean_chart_passes(self, result):
        assert result.clean_chart_passes()

    def test_style_inconsistency_caught(self, result):
        assert result.style_findings


class TestE14Histogram:
    def test_slide_shape(self):
        result = run_e14()
        assert result.fine.counts == (4, 6, 8, 9, 6, 3)
        assert not result.fine.satisfies_cell_rule()
        assert result.coarse.counts == (18, 18)
        assert result.coarse.satisfies_cell_rule()
        assert result.recommended.satisfies_cell_rule()


class TestE15Gnuplot:
    def test_files_and_content(self, tmp_path):
        result = run_e15(tmp_path, sf_values=(0.002, 0.004))
        assert result.csv_path.exists()
        assert result.gnu_path.exists()
        script = result.script_text()
        assert "set terminal postscript" in script
        assert "Execution time" in script
        assert len(result.points) == 2
        # More data should not be cheaper.
        assert result.points[1][1] >= result.points[0][1]


class TestE16Locale:
    def test_slide_values(self):
        result = run_e16()
        assert result.corrupted_values == (13666.0, 15.0, 123333.0, 13.0)
        assert set(result.corrupted_report.suspicious_indices) == {0, 2}
        assert result.good_report.is_clean


class TestE17Sigmod:
    def test_totals(self):
        result = run_e17()
        assert result.pool("accepted").total == 78
        assert result.pool("rejected").total == 11
        assert result.pool("all verified").total == 64

    def test_pies_obey_guidelines(self):
        assert run_e17().pies_pass_guidelines()

    def test_format(self):
        text = run_e17().format()
        assert "298 of 436" in text


class TestE18FairComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e18(sf=0.003)

    def test_dbg_ratio_in_band(self, result):
        assert 1.2 <= result.dbg_over_opt_cpu <= 2.35

    def test_tuning_factor_in_band(self, result):
        # Tutorial: "factor x, 2 <= x <= 10?"
        assert 2.0 <= result.untuned_over_tuned <= 10.0

    def test_checklists_flag_both_stories(self, result):
        assert not result.build_report.is_fair
        assert not result.stage_report.is_fair

    def test_automated_checklist_flags_protocol_mismatch(self, result):
        flagged = {c.key for c in result.pitfall_report.warnings}
        assert {"stage-match", "warmup-match"} <= flagged


class TestE19Metrics:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e19(sf=0.003)

    def test_throughput_positive(self, result):
        assert result.queries_per_second > 0

    def test_hash_join_wins(self, result):
        assert result.join_speedup > 2.0

    def test_scaleup_near_one(self, result):
        assert 0.5 <= result.scaleup_factor <= 1.5


class TestE20TwoStage:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e20(sf=0.002)

    def test_screening_cheaper_than_full(self, result):
        assert result.screening_runs == 8
        assert result.full_factorial_runs == 32

    def test_dominant_factors_selected(self, result):
        selected = set(result.outcome.screening.selected)
        # The buffer pool (I/O per run when data does not fit) and the
        # execution model / build / tuning are the real drivers; the
        # output sink never is (tiny results).
        assert selected <= {"mode", "tuned", "build", "buffer"}
        assert "output" not in selected

    def test_best_configuration_is_fast_choices(self, result):
        best = result.outcome.refinement.best_configuration
        for name, fast_level in (("mode", "column"), ("tuned", "yes"),
                                 ("build", "opt"), ("buffer", "large")):
            if name in result.outcome.screening.selected:
                assert best[name] == fast_level


class TestE21FaultTolerance:
    @pytest.fixture(scope="class")
    def result(self):
        return run_e21(sf=0.002)

    def test_every_point_accounted_at_every_budget(self, result):
        for outcome in result.outcomes:
            assert outcome.measured + outcome.failed == result.n_points

    def test_retries_recover_lost_points(self, result):
        no_retry = result.outcome(1)
        best = result.outcomes[-1]
        assert no_retry.failed > 0        # 20% faults must bite
        assert no_retry.retries == 0
        assert best.survival_rate > no_retry.survival_rate
        assert best.survival_rate >= 0.875

    def test_faults_actually_fired(self, result):
        assert all(o.faults_fired > 0 for o in result.outcomes)

    def test_analysis_refuses_failed_campaigns(self, result):
        assert "NaN" in result.analysis_diagnostic

    def test_format_prints_table_and_paragraph(self, result):
        text = result.format()
        assert "survival" in text
        assert "methodology paragraph" in text

    def test_output_byte_identical_after_fault_scoping(self, result):
        """Pin E21's exact output: adding per-session fault scoping
        (for the serving layer) must not perturb unscoped campaigns'
        fault streams by a single byte."""
        import hashlib
        digest = hashlib.sha256(result.format().encode()).hexdigest()
        assert digest == ("9807ae190db2c10f663ba3298e7d4f57"
                          "c9ad6702bfcf58a57e5e736f0336983c")
