"""Integration tests for E24: the serving grid's acceptance criteria.

Runs a reduced grid (fewer loads/policies, shorter horizon than the CI
artifact) and pins the shapes the experiment exists to show: a monotone
throughput curve with a visible saturation knee, per-cell tail
percentiles, byte-identical determinism across worker counts and
repeated seeds, and — under the fault burst — protected goodput beating
the unprotected control past the knee.
"""

import json

import pytest

from repro.errors import ServeError
from repro.experiments.e24_serving import (
    export_artifacts,
    lint_charts,
    make_charts,
    run_e24,
)

LOADS = (0.3, 0.9, 1.8, 2.5)
POLICIES = ("none", "reject")
PROFILES = ("none", "burst")
DURATION_S = 0.03


@pytest.fixture(scope="module")
def result():
    return run_e24(seed=7, loads=LOADS, policies=POLICIES,
                   profiles=PROFILES, duration_s=DURATION_S)


class TestGridShape:
    def test_full_factorial_grid(self, result):
        assert len(result.cells) == \
            len(LOADS) * len(POLICIES) * len(PROFILES)
        seen = {(c.load, c.policy, c.faults) for c in result.cells}
        assert len(seen) == len(result.cells)
        # cells come back in declared grid order regardless of jobs
        assert [c.index for c in result.cells] == \
            list(range(len(result.cells)))

    def test_calibration_is_sane(self, result):
        assert result.service_ms > 0
        assert result.capacity_per_s == pytest.approx(
            result.workers / (result.service_ms / 1000.0))

    def test_missing_cell_raises(self, result):
        with pytest.raises(ServeError, match="no E24 cell"):
            result.cell(0.123, "reject")


class TestThroughputCurve:
    def test_monotone_with_saturation_knee(self, result):
        for policy in POLICIES:
            curve = result.curve(policy, "none", "throughput_per_s")
            xs = [x for x, __ in curve]
            ys = [y for __, y in curve]
            assert xs == sorted(xs)
            # monotone non-decreasing within 2% measurement slack
            for lo, hi in zip(ys, ys[1:]):
                assert hi >= lo * 0.98
            # below the knee the server keeps up ...
            assert ys[0] == pytest.approx(xs[0], rel=0.1)
            # ... past it, delivery flattens near capacity (the short
            # test horizon leaves some capacity to edge effects)
            assert ys[-1] < 0.9 * xs[-1]
            assert 0.6 * result.capacity_per_s <= ys[-1] \
                <= 1.05 * result.capacity_per_s

    def test_knee_is_detected_past_capacity(self, result):
        for policy in POLICIES:
            knee = result.knee_load(policy)
            assert 0.9 <= knee <= 2.5

    def test_offered_rate_tracks_the_load_factor(self, result):
        for cell in result.cells:
            expected = cell.load * result.capacity_per_s
            assert cell.offered_per_s == pytest.approx(expected,
                                                       rel=0.25)


class TestTailLatency:
    def test_every_serving_cell_reports_percentiles(self, result):
        for cell in result.cells:
            if cell.counts.get("ok", 0) + cell.counts.get("late", 0):
                assert cell.p50_ms > 0
                assert cell.p50_ms <= cell.p95_ms <= cell.p99_ms
                assert cell.p99_ms <= cell.max_ms

    def test_unprotected_tail_explodes_past_the_knee(self, result):
        below = result.cell(0.3, "none")
        above = result.cell(2.5, "none")
        assert above.p99_ms > 10 * below.p99_ms

    def test_bounded_queue_bounds_the_tail(self, result):
        unprotected = result.cell(2.5, "none")
        protected = result.cell(2.5, "reject")
        assert protected.p99_ms < unprotected.p99_ms


class TestProtectionUnderFaults:
    def test_protected_goodput_beats_unprotected_past_knee(self, result):
        """The acceptance criterion: with faults injected, the
        shedding + breaker + retry configuration keeps goodput at or
        above the no-protection control."""
        for load in (1.8, 2.5):
            protected = result.cell(load, "reject", "burst")
            unprotected = result.cell(load, "none", "burst")
            assert protected.goodput_per_s >= \
                unprotected.goodput_per_s, (
                    f"protection lost at load {load}: "
                    f"{protected.goodput_per_s:.0f}/s < "
                    f"{unprotected.goodput_per_s:.0f}/s")

    def test_burst_cells_actually_saw_faults(self, result):
        burst = [c for c in result.cells if c.faults == "burst"]
        assert any(c.faults_injected > 0 for c in burst)
        clean = [c for c in result.cells if c.faults == "none"]
        assert all(c.faults_injected == 0 for c in clean)


class TestDeterminism:
    def artifact(self, jobs):
        return json.dumps(
            run_e24(seed=7, jobs=jobs, loads=(0.6, 1.8),
                    policies=("none", "reject"), profiles=("none",),
                    duration_s=0.02).to_artifact(),
            sort_keys=True)

    def test_jobs_1_vs_jobs_n_byte_identical(self):
        assert self.artifact(jobs=1) == self.artifact(jobs=4)

    def test_repeated_seed_byte_identical(self):
        assert self.artifact(jobs=1) == self.artifact(jobs=1)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ServeError, match="jobs"):
            run_e24(jobs=0)


class TestReporting:
    def test_format_names_the_knee(self, result):
        text = result.format()
        assert "saturation knee" in text
        assert "capacity" in text

    def test_charts_pass_the_guideline_linter(self, result):
        findings = lint_charts(result)
        assert [f for f in findings if f.severity == "error"] == []
        # the serving-specific rules must be satisfied, not skipped:
        charts = make_charts(result)
        rules = {f.rule for f in findings}
        assert "tail-percentiles" not in rules
        assert "saturation-coverage" not in rules
        assert any("p99" in s.label
                   for s in charts["latency"].series)

    def test_export_artifacts(self, result, tmp_path):
        paths = export_artifacts(result, str(tmp_path))
        assert len(paths) == 2
        grid = json.loads((tmp_path / "e24_grid.json").read_text())
        assert grid["experiment"] == "e24"
        assert len(grid["cells"]) == len(result.cells)
        curves = json.loads((tmp_path / "e24_curves.json").read_text())
        assert set(curves) == {"throughput", "goodput_under_faults",
                               "p99_ms"}
        for policy in POLICIES:
            assert len(curves["throughput"][policy]) == len(LOADS)
