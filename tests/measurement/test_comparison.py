"""FairComparisonHarness and the automated Taipalus pitfall checklist."""

import numpy as np
import pytest

from repro.db import (
    DataType,
    Database,
    EngineConfig,
    MiniDBSystem,
    Table,
    default_systems,
)
from repro.errors import MeasurementError
from repro.measurement import (
    PickRule,
    RunProtocol,
    State,
    protocol_estimate,
)
from repro.measurement.comparison import (
    FairComparisonHarness,
    PITFALLS,
    QuerySpec,
    WorkloadSpec,
)

SQL = ("SELECT region, SUM(amount) AS s FROM fact "
       "JOIN part ON pkey = pkey JOIN cust ON ckey = ckey "
       "WHERE region = 1 GROUP BY region ORDER BY region")
ORDER = ("cust", "fact", "part")


def tiny_star(seed: int = 5, n_fact: int = 160) -> Database:
    rng = np.random.default_rng(seed)
    db = Database(name="comparison_test")
    db.create_table(Table.from_columns(
        "fact",
        [("ckey", DataType.INT64), ("pkey", DataType.INT64),
         ("amount", DataType.FLOAT64)],
        {"ckey": rng.integers(0, 12, n_fact),
         "pkey": rng.integers(0, 6, n_fact),
         "amount": rng.random(n_fact) * 10.0}))
    db.create_table(Table.from_columns(
        "cust",
        [("ckey", DataType.INT64), ("region", DataType.INT64)],
        {"ckey": np.arange(12, dtype=np.int64),
         "region": rng.integers(0, 3, 12)}))
    db.create_table(Table.from_columns(
        "part",
        [("pkey", DataType.INT64), ("cat", DataType.INT64)],
        {"pkey": np.arange(6, dtype=np.int64),
         "cat": rng.integers(0, 2, 6)}))
    return db


def spec(forced=(ORDER,)):
    return WorkloadSpec(name="t", queries=(
        QuerySpec("q1", SQL, forced_orders=tuple(forced)),))


def hot(repetitions=2):
    return RunProtocol(state=State.HOT, repetitions=repetitions,
                       pick=PickRule.MEDIAN, warmups=1)


def cold(repetitions=2):
    return RunProtocol(state=State.COLD, repetitions=repetitions,
                       pick=PickRule.MEDIAN, warmups=0)


class TestSpecValidation:
    def test_empty_workload_rejected(self):
        with pytest.raises(MeasurementError, match="no queries"):
            WorkloadSpec(name="empty", queries=())

    def test_variants_start_with_planner_choice(self):
        q = QuerySpec("q", SQL, forced_orders=(ORDER,))
        assert q.variants() == (None, ORDER)


class TestHarnessValidation:
    def test_needs_two_systems(self):
        with pytest.raises(MeasurementError, match=">= 2 systems"):
            FairComparisonHarness((MiniDBSystem(),))

    def test_duplicate_names_rejected(self):
        with pytest.raises(MeasurementError, match="duplicate"):
            FairComparisonHarness((MiniDBSystem(), MiniDBSystem()))

    def test_override_for_unknown_system_rejected(self):
        with pytest.raises(MeasurementError, match="unknown systems"):
            FairComparisonHarness(
                default_systems(),
                protocols={"postgres": hot()})

    def test_empty_metrics_rejected(self):
        with pytest.raises(MeasurementError, match="metrics"):
            FairComparisonHarness(default_systems(), metrics=())


class TestFairRun:
    @pytest.fixture(scope="class")
    def report(self):
        harness = FairComparisonHarness(default_systems(), protocol=hot())
        return harness.run(tiny_star(), spec())

    def test_all_checks_pass(self, report):
        assert report.is_fair
        assert len(report.pitfalls) == len(PITFALLS)

    def test_baseline_is_first_system(self, report):
        assert report.baseline == "minidb-loop"
        assert report.summary("minidb-loop").speedup_vs_baseline is None
        ci = report.summary("minidb-vectorized").speedup_vs_baseline
        assert ci is not None and ci.low <= ci.mean <= ci.high

    def test_unknown_lookups_raise(self, report):
        with pytest.raises(MeasurementError, match="no pitfall"):
            report.pitfall("nonexistent")
        with pytest.raises(MeasurementError, match="no summary"):
            report.summary("postgres")

    def test_to_dict_is_json_ready(self, report):
        import json
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["fair"] is True
        assert {p["key"] for p in blob["pitfalls"]} \
            == {key for key, __ in PITFALLS}

    def test_format_shows_verdict(self, report):
        assert "(fair)" in report.format()
        assert "[ok  ]" in report.format()

    def test_one_median_per_system(self, report):
        """The printed median and the speedup point share one
        estimator, also on an even pool (2 variants x 2 runs)."""
        pools = {name: [] for name in report.systems}
        for m in report.measurements:
            pools[m.system].extend(m.wall_samples)
        for entry in report.summaries:
            assert len(pools[entry.system]) == 4
            assert entry.median_wall_s == protocol_estimate(
                pools[entry.system])
        baseline = report.summary(report.baseline).median_wall_s
        for entry in report.summaries[1:]:
            assert entry.speedup_vs_baseline.mean == \
                baseline / entry.median_wall_s

    def test_to_dict_names_run_protocol_fields(self, report):
        protocol = report.to_dict()["summaries"][0]["protocol"]
        assert protocol == {"state": "hot", "warmups": 1,
                            "repetitions": 2, "pick": "median"}


class TestUnfairRuns:
    def test_mismatched_warmup_flagged(self):
        harness = FairComparisonHarness(
            default_systems(), protocol=hot(),
            protocols={"sqlite": cold()})
        report = harness.run(tiny_star(), spec())
        flagged = {c.key for c in report.warnings}
        assert {"stage-match", "warmup-match"} <= flagged
        assert not report.is_fair
        assert "UNFAIR" in report.format()

    def test_cold_stage_without_make_cold_flagged(self):
        # Every system asks for cold, but SQLite cannot flush: its
        # "cold" runs are warm, so the stages do not really match.
        harness = FairComparisonHarness(default_systems(), protocol=cold())
        report = harness.run(tiny_star(), spec())
        check = report.pitfall("stage-match")
        assert not check.passed
        assert "sqlite" in check.detail
        assert "minidb" not in check.detail
        assert not report.is_fair

    def test_single_metric_flagged(self):
        harness = FairComparisonHarness(
            default_systems(), protocol=hot(repetitions=1),
            metrics=("wall_s",))
        report = harness.run(tiny_star(), spec())
        assert not report.pitfall("multiple-metrics").passed

    def test_no_forced_orders_flagged(self):
        harness = FairComparisonHarness(
            default_systems(), protocol=hot(repetitions=1))
        report = harness.run(tiny_star(), spec(forced=()))
        check = report.pitfall("plan-shapes")
        assert not check.passed
        assert "no forced join orders" in check.detail


class TestForcingRefusals:
    def test_non_forcing_system_warns_instead_of_crashing(self):
        class NoForce(MiniDBSystem):
            supports_plan_forcing = False

        harness = FairComparisonHarness(
            (MiniDBSystem(),
             NoForce(EngineConfig(executor="vectorized"), label="no-force")),
            protocol=hot(repetitions=1))
        report = harness.run(tiny_star(), spec())
        check = report.pitfall("plan-shapes")
        assert not check.passed
        assert "plan shapes not comparable" in check.detail
        assert "no-force" in check.detail
        # The refusing system still executed every variant.
        measured = [m for m in report.measurements
                    if m.system == "no-force"]
        assert all(m.result.n_rows > 0 for m in measured)
        assert any(m.forcing_error for m in measured)

    def test_results_still_verified_for_refusing_system(self):
        class NoForce(MiniDBSystem):
            supports_plan_forcing = False

        harness = FairComparisonHarness(
            (MiniDBSystem(),
             NoForce(EngineConfig(executor="vectorized"), label="no-force")),
            protocol=hot(repetitions=1))
        report = harness.run(tiny_star(), spec())
        assert report.pitfall("result-equivalence").passed
