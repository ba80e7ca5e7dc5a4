"""Tests for the v2 cost-based optimizer stack.

Covers the statistics catalogue (ANALYZE, histograms, selectivities),
the calibrated cost model, plan hints, join-order enumeration, the
physical-operator selection chain, engine integration (ANALYZE-driven
plan-cache invalidation), estimate sanitisation, and the differential
property that every enumerated join order and operator choice computes
the same result on both executors.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.db import (
    CardinalityEstimator,
    ColumnStats,
    DataType,
    Database,
    Engine,
    EngineConfig,
    Histogram,
    OperatorCost,
    PlannerOptions,
    StatisticsCatalog,
    Table,
    TableStats,
    calibrate_cost_model,
    combine_conjuncts,
    enumerate_join_orders,
    fit_coefficients,
    parse_hints,
    parse_select,
    plan_statement,
    predicate_selectivity,
    sanitize_estimate,
    work_units,
)
from repro.db.costmodel import CalibrationSample
from repro.db.plan import EST_CAP
from repro.errors import CatalogError, PlanError, SqlSyntaxError
from tests.db.reference import EXECUTORS, assert_matches, sqlite_result


def star_db(seed=0, n_fact=2000, n_cust=100, n_part=25):
    """A small star schema: fact rows referencing two dimensions."""
    rng = np.random.default_rng(seed)
    db = Database(name=f"star_{seed}")
    db.create_table(Table.from_columns(
        "fact",
        [("ckey", DataType.INT64), ("pkey", DataType.INT64),
         ("amount", DataType.FLOAT64)],
        {"ckey": rng.integers(0, n_cust, n_fact),
         "pkey": rng.integers(0, n_part, n_fact),
         "amount": rng.random(n_fact) * 100.0}))
    db.create_table(Table.from_columns(
        "cust",
        [("ckey", DataType.INT64), ("region", DataType.INT64)],
        {"ckey": np.arange(n_cust, dtype=np.int64),
         "region": rng.integers(0, 5, n_cust)}))
    db.create_table(Table.from_columns(
        "part",
        [("pkey", DataType.INT64), ("cat", DataType.INT64)],
        {"pkey": np.arange(n_part, dtype=np.int64),
         "cat": rng.integers(0, 4, n_part)}))
    return db


STAR_SQL = ("SELECT region, SUM(amount) AS s FROM fact "
            "JOIN cust ON ckey = ckey JOIN part ON pkey = pkey "
            "WHERE region = 2 AND cat = 1 GROUP BY region "
            "ORDER BY region")


def analyzed_stats(db):
    stats = StatisticsCatalog()
    stats.analyze(db)
    return stats


# ---------------------------------------------------------------------------
# Statistics layer
# ---------------------------------------------------------------------------

class TestStatistics:
    def test_histogram_fractions(self):
        hist = Histogram.build(np.arange(100, dtype=np.float64), 10)
        assert hist.fraction_below(0) == pytest.approx(0.0)
        assert hist.fraction_below(50) == pytest.approx(0.5, abs=0.02)
        assert hist.fraction_below(1000) == pytest.approx(1.0)
        assert hist.fraction_between(25, 75) == pytest.approx(0.5,
                                                              abs=0.05)

    def test_column_stats_selectivities(self):
        table = Table.from_columns(
            "t", [("a", DataType.INT64)],
            {"a": np.repeat(np.arange(10), 10)})
        stats = ColumnStats.collect(table, "a")
        assert stats.n_distinct == 10
        assert stats.selectivity_eq(3) == pytest.approx(0.1)
        assert stats.selectivity_eq(99) <= 1e-6  # out of range
        assert stats.selectivity_cmp("<", 5) == pytest.approx(0.5,
                                                              abs=0.1)

    def test_analyze_versions_and_errors(self):
        db = star_db()
        catalog = StatisticsCatalog()
        assert catalog.version == 0
        catalog.analyze(db, ["fact"])
        assert catalog.version == 1
        assert catalog.table("fact").n_rows == 2000
        assert catalog.table("cust") is None
        catalog.analyze(db)
        assert catalog.version == 2
        assert len(catalog) == 3
        with pytest.raises(CatalogError):
            catalog.analyze(db, ["nope"])

    def test_predicate_selectivity_uses_histograms(self):
        db = star_db()
        stats = analyzed_stats(db)
        where = parse_select(
            "SELECT ckey FROM cust WHERE region = 2").where
        sel = predicate_selectivity(where, stats.table("cust"))
        assert sel == pytest.approx(0.2, abs=0.1)
        # Without statistics it falls back to the System R heuristic.
        fallback = predicate_selectivity(where, None)
        assert 0.0 < fallback <= 1.0

    def test_combine_conjuncts_backoff(self):
        # Exponential backoff: weaker than full independence.
        combined = combine_conjuncts([0.1, 0.1, 0.1])
        assert combined > 0.1 * 0.1 * 0.1
        assert combined < 0.1
        assert combine_conjuncts([]) == 1.0


# ---------------------------------------------------------------------------
# Cost model + calibration
# ---------------------------------------------------------------------------

class TestCostModel:
    def test_work_units_shapes(self):
        assert work_units("NestedLoopJoin", 10, 5, 20) == 200
        assert work_units("HashJoin", 10, 5, 20) == 35
        assert work_units("Sort", 8, 8) == pytest.approx(24.0)
        assert work_units("SeqScan", 10, 7) == 7
        assert work_units("Filter", 10, 3) == 10

    def test_fit_recovers_synthetic_slope(self):
        samples = [CalibrationSample("Filter", n, n // 2, 0.0,
                                     1_000.0 + 42.0 * n, 0.0)
                   for n in (100, 500, 2_000, 10_000)]
        fitted = fit_coefficients(samples)["Filter"]
        assert fitted.per_row_ns == pytest.approx(42.0, rel=0.01)
        assert fitted.startup_ns == pytest.approx(1_000.0, rel=0.05)

    @pytest.fixture(scope="class")
    def calibrated(self):
        return calibrate_cost_model(seed=7)

    def test_calibration_is_deterministic_and_sensible(self, calibrated):
        model = calibrated
        again = calibrate_cost_model(seed=7)
        assert model == again
        assert model.source == "calibrated"
        sort = model.cost_for("Sort")
        # The loop executor charges sort_ns_per_compare=80 per compare.
        assert sort.per_row_ns == pytest.approx(80.0, rel=0.2)
        scan = model.cost_for("SeqScan")
        assert scan.per_byte_ns > 0.0  # cold IO landed on the byte slope

    def test_calibrated_coefficients_pinned(self, calibrated):
        """The fit reads simulated span times, so every coefficient
        must survive executor refactorings digit for digit."""
        coefficients = repr([(kind, cost.startup_ns, cost.per_row_ns,
                              cost.per_byte_ns)
                             for kind, cost in calibrated.coefficients])
        digest = hashlib.sha256(coefficients.encode()).hexdigest()
        assert digest == (
            "2106ab7128ef0c53209c384603b6e0f8"
            "b3b36e2cbabb076fa4866c10c74d6f75")

    def test_join_rows_caps_ndv(self):
        # NDV larger than cardinality is capped at the row count.
        est = CardinalityEstimator.join_rows(100.0, 50.0, 1_000.0, 50.0)
        assert est == pytest.approx(100.0 * 50.0 / 100.0)
        assert CardinalityEstimator.join_rows(0.0, 50.0, 1.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# Plan hints
# ---------------------------------------------------------------------------

class TestPlanHints:
    def test_parse_hint_comment(self):
        stmt = parse_select(
            "/*+ JOIN_ORDER(cust fact part) JOIN_OP(part loop) "
            "SCAN(fact seq) BUILD(part left) */ "
            "SELECT ckey FROM fact JOIN cust ON ckey = ckey "
            "JOIN part ON pkey = pkey")
        assert stmt.hints.join_order == ("cust", "fact", "part")
        assert stmt.hints.join_op_for("part") == "loop"
        assert stmt.hints.scan_for("fact") == "seq"
        assert stmt.hints.build_side_for("part") == "left"

    def test_plain_comments_are_skipped(self):
        stmt = parse_select("/* just a note */ SELECT ckey FROM fact")
        assert stmt.hints.is_empty

    def test_hint_errors(self):
        with pytest.raises(SqlSyntaxError):
            parse_hints("JOIN_OP(t sideways)")
        with pytest.raises(SqlSyntaxError):
            parse_hints("FROBNICATE(t)")
        with pytest.raises(SqlSyntaxError):
            parse_hints("JOIN_OP(t hash) JOIN_OP(t merge)")
        with pytest.raises(SqlSyntaxError):
            parse_hints("JOIN_ORDER(a a)")


# ---------------------------------------------------------------------------
# Join-order enumeration
# ---------------------------------------------------------------------------

class TestJoinEnumeration:
    def test_star_orders(self):
        db = star_db()
        stmt = parse_select(STAR_SQL)
        orders = enumerate_join_orders(stmt, db)
        # fact is the hub: 2 orders starting at fact + 1 from each dim.
        assert sorted(orders) == sorted([
            ("fact", "cust", "part"), ("fact", "part", "cust"),
            ("cust", "fact", "part"), ("part", "fact", "cust")])

    def test_disconnected_rejected(self):
        db = star_db()
        stmt = parse_select(
            "SELECT region FROM cust JOIN part ON pkey = pkey")
        with pytest.raises(PlanError):
            enumerate_join_orders(stmt, db)


# ---------------------------------------------------------------------------
# Cost-based planning
# ---------------------------------------------------------------------------

class TestCostBasedPlanner:
    def test_dp_reorders_away_from_textual(self):
        db = star_db()
        stats = analyzed_stats(db)
        plan = plan_statement(parse_select(STAR_SQL), db,
                              PlannerOptions.cost(), stats=stats)
        info = plan.optimizer_info
        assert info["method"] == "dp"
        assert info["plans_considered"] > len(info["join_order"])
        # A selective dimension, not the big fact table, anchors the
        # order (the textual order starts at fact).
        assert info["join_order"][0] != "fact"

    def test_every_node_annotated(self):
        db = star_db()
        plan = plan_statement(parse_select(STAR_SQL), db,
                              PlannerOptions.cost(),
                              stats=analyzed_stats(db))
        for node in plan.walk():
            assert node.est_rows is not None
            assert node.est_cost_ns is not None
            assert math.isfinite(node.est_rows)
            assert math.isfinite(node.est_cost_ns)
        # Cost accumulates: the root carries the whole plan's cost.
        assert plan.est_cost_ns >= max(
            c.est_cost_ns for c in plan.walk() if c is not plan)

    def test_hints_force_order_and_operators(self):
        db = star_db()
        stats = analyzed_stats(db)
        sql = ("/*+ JOIN_ORDER(part fact cust) JOIN_OP(cust merge) "
               "BUILD(fact left) */ " + STAR_SQL)
        plan = plan_statement(parse_select(sql), db, PlannerOptions(),
                              stats=stats)
        info = plan.optimizer_info
        assert info["method"] == "hinted"
        assert info["join_order"] == ("part", "fact", "cust")
        assert info["join_ops"]["cust"] == "merge"
        assert info["build_sides"]["fact"] == "left"
        text = plan.explain()
        assert "MergeJoin" in text
        assert text.count("Sort") >= 2  # enforcers on both merge inputs

    def test_loop_hint_produces_nested_loop(self):
        db = star_db()
        sql = "/*+ JOIN_OP(cust loop) */ " + STAR_SQL
        plan = plan_statement(parse_select(sql), db, PlannerOptions(),
                              stats=analyzed_stats(db))
        assert "NestedLoopJoin" in plan.explain()

    def test_hint_errors(self):
        db = star_db()
        stats = analyzed_stats(db)
        bad = [
            "/*+ JOIN_ORDER(fact cust) */ " + STAR_SQL,      # not all
            "/*+ JOIN_OP(nope hash) */ " + STAR_SQL,         # unknown
            "/*+ SCAN(fact index) */ " + STAR_SQL,           # no index
        ]
        for sql in bad:
            with pytest.raises(PlanError):
                plan_statement(parse_select(sql), db, PlannerOptions(),
                               stats=stats)

    def test_index_path_chosen_and_forceable(self):
        # A clustered key: each key's rows sit on few pages, so the
        # random-page index path beats the full scan.  (With scattered
        # keys the cost model correctly prefers the sequential scan —
        # an index fetching most pages randomly is the classic trap.)
        rng = np.random.default_rng(0)
        n = 5000
        db = Database(name="clustered")
        db.create_table(Table.from_columns(
            "fact",
            [("ckey", DataType.INT64), ("amount", DataType.FLOAT64)],
            {"ckey": np.sort(rng.integers(0, 100, n)),
             "amount": rng.random(n) * 100.0}))
        engine = Engine(db, EngineConfig(optimizer="cost"))
        engine.create_index("fact", "ckey")
        engine.analyze()
        sql = "SELECT SUM(amount) AS s FROM fact WHERE ckey = 7"
        plan = engine.plan(sql)
        assert plan.optimizer_info["scan_ops"]["fact"] == "index"
        assert "IndexScan" in plan.explain()
        forced = engine.plan("/*+ SCAN(fact seq) */ " + sql)
        assert forced.optimizer_info["scan_ops"]["fact"] == "seq"
        assert "IndexScan" not in forced.explain()
        assert engine.execute(sql).scalar() == pytest.approx(
            engine.execute("/*+ SCAN(fact seq) */ " + sql).scalar())

    def test_greedy_beyond_dp_limit(self):
        # A 7-table chain forces the greedy enumerator.
        rng = np.random.default_rng(3)
        db = Database(name="chain")
        n_tables, n = 7, 30
        for i in range(n_tables):
            cols = [(f"a{i}", DataType.INT64)]
            data = {f"a{i}": rng.integers(0, 5, n)}
            if i + 1 < n_tables:
                cols.append((f"a{i + 1}", DataType.INT64))
                data[f"a{i + 1}"] = rng.integers(0, 5, n)
            db.create_table(Table.from_columns(f"t{i}", cols, data))
        joins = " ".join(f"JOIN t{i} ON a{i} = a{i}"
                         for i in range(1, n_tables))
        sql = f"SELECT COUNT(*) AS c FROM t0 {joins}"
        plan = plan_statement(parse_select(sql), db,
                              PlannerOptions.cost())
        assert plan.optimizer_info["method"] == "greedy"
        cost = Engine(db, EngineConfig(optimizer="cost"))
        heuristic = Engine(db, EngineConfig())
        assert cost.execute(sql).scalar() == heuristic.execute(sql).scalar()


# ---------------------------------------------------------------------------
# Engine integration (incl. ANALYZE plan-cache invalidation)
# ---------------------------------------------------------------------------

class TestEngineIntegration:
    def test_analyze_invalidates_plan_cache(self):
        db = star_db()
        engine = Engine(db, EngineConfig(optimizer="cost",
                                         plan_cache=True))
        engine.execute(STAR_SQL)
        engine.execute(STAR_SQL)
        assert (engine.plan_cache_hits,
                engine.plan_cache_misses) == (1, 1)
        engine.analyze()
        engine.execute(STAR_SQL)
        assert (engine.plan_cache_hits,
                engine.plan_cache_misses) == (1, 2)
        # A second ANALYZE bumps the version again even with no DDL.
        engine.analyze()
        engine.execute(STAR_SQL)
        assert engine.plan_cache_misses == 3

    def test_statistics_surface(self):
        db = star_db()
        engine = Engine(db, EngineConfig(optimizer="cost"))
        assert engine.statistics()["stats_version"] == 0.0
        engine.analyze(["fact", "cust"])
        stats = engine.statistics()
        assert stats["stats_version"] == 1.0
        assert stats["stats_tables_analyzed"] == 2.0

    def test_cost_and_heuristic_agree(self):
        db = star_db()
        cost = Engine(db, EngineConfig(optimizer="cost"))
        cost.analyze()
        heuristic = Engine(db, EngineConfig())
        a = cost.execute(STAR_SQL).rows
        b = heuristic.execute(STAR_SQL).rows
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra[0] == rb[0]
            assert ra[1] == pytest.approx(rb[1])

    def test_invalid_optimizer_rejected(self):
        from repro.errors import DatabaseError
        with pytest.raises(DatabaseError):
            EngineConfig(optimizer="quantum")

    def test_explain_shows_estimates_and_honors_hints(self):
        db = star_db()
        for executor in ("loop", "vectorized"):
            engine = Engine(db, EngineConfig(optimizer="cost",
                                             executor=executor))
            engine.analyze()
            text = engine.explain(
                "/*+ JOIN_ORDER(cust fact part) BUILD(fact left) */ "
                + STAR_SQL)
            assert "est_rows=" in text
            assert "est_cost=" in text
            assert "build=left" in text


# ---------------------------------------------------------------------------
# Estimate sanitisation (EXPLAIN must never print nan/inf)
# ---------------------------------------------------------------------------

class TestEstimateSanitisation:
    def test_sanitize_estimate(self):
        assert sanitize_estimate(float("nan"), fallback=7.0) == 7.0
        assert sanitize_estimate(float("inf")) == EST_CAP
        assert sanitize_estimate(float("-inf")) == 0.0
        assert sanitize_estimate(-5.0) == 0.0
        assert sanitize_estimate(3.25) == 3.25
        assert sanitize_estimate(EST_CAP * 10) == EST_CAP

    def test_explain_never_prints_nan_or_inf(self):
        db = star_db()
        engine = Engine(db, EngineConfig(optimizer="cost"))
        engine.analyze()
        plan = engine.plan(STAR_SQL)
        # Poison the annotations the way degenerate estimate arithmetic
        # would; EXPLAIN must still render finite numbers.
        for node, poison in zip(plan.walk(),
                                (float("nan"), float("inf"),
                                 float("-inf"))):
            node.est_rows = poison
            node.est_cost_ns = poison
        text = plan.explain(engine._context())
        assert "nan" not in text.lower()
        assert "inf" not in text.lower()


# ---------------------------------------------------------------------------
# Differential property: every enumerated plan computes the same result
# ---------------------------------------------------------------------------

class TestDifferentialEnumeration:
    @pytest.mark.parametrize("seed", (3, 42))
    def test_all_orders_and_operators_agree(self, seed):
        db = star_db(seed=seed, n_fact=400, n_cust=30, n_part=10)
        stmt = parse_select(STAR_SQL)
        want = sqlite_result(db, STAR_SQL)
        for order in enumerate_join_orders(stmt, db):
            for op in ("hash", "merge", "loop"):
                ops = " ".join(f"JOIN_OP({t} {op})" for t in order[1:])
                sql = (f"/*+ JOIN_ORDER({' '.join(order)}) {ops} */ "
                       + STAR_SQL)
                for executor in EXECUTORS:
                    engine = Engine(db, EngineConfig(
                        optimizer="cost", executor=executor))
                    engine.analyze()
                    assert_matches(engine.execute(sql), want, sql)
