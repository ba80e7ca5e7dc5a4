"""Tests for per-operator actuals and EXPLAIN ANALYZE."""

import numpy as np
import pytest

from repro.db import (
    DataType,
    Database,
    Engine,
    EngineConfig,
    NodeActuals,
    PlanActuals,
    SeqScan,
    Table,
    q_error,
    strip_explain,
)
from repro.errors import PlanError
from repro.experiments.e25_optimizer import star_database, star_queries


def tiny_engine(executor="loop", **kwargs):
    db = Database(name="tiny")
    db.create_table(Table.from_columns(
        "t", [("k", DataType.INT64), ("v", DataType.INT64)],
        {"k": np.arange(100, dtype=np.int64),
         "v": np.arange(100, dtype=np.int64) % 7}))
    return Engine(db, EngineConfig(executor=executor, **kwargs))


SQL = "SELECT k, v FROM t WHERE v < 3 ORDER BY k LIMIT 5"


#: EXPLAIN ANALYZE of the E25 ``region_cat`` star query under the two
#: profiles MiniDB's comparison backends use: a change to the executor
#: must leave every simulated self time and annotation as it is.
STAR_EXPLAIN_ANALYZE = {
    "loop": (
        "EXPLAIN ANALYZE (executor=loop)\n"
        "-- 10 operators, median q-error 2.23, max 50.00\n"
        "-> Sort(region ASC)  est_rows=50  rows=1  q=50.00  batches=1  self=0.000ms  buffer=0/0\n"
        "  -> Project(region, s)  est_rows=50  rows=1  q=50.00  batches=1  self=0.000ms  buffer=0/0\n"
        "    -> Aggregate(by region: sum(amount) AS s)  est_rows=50  rows=1  q=50.00  batches=1  self=0.067ms  buffer=0/0\n"
        "      -> HashJoin(pkey=pkey)  est_rows=240  rows=444  q=1.85  batches=2  self=0.033ms  buffer=0/0\n"
        "        -> NestedLoopJoin(ckey=ckey)  est_rows=40  rows=89  q=2.23  batches=2  self=0.360ms  buffer=0/0\n"
        "          -> Filter((region = 11))  est_rows=4  rows=9  q=2.25  batches=1  self=0.012ms  buffer=0/0\n"
        "            -> SeqScan(cust: ckey, region)  est_rows=200  rows=200  q=1.00  batches=1  self=0.004ms  buffer=1/0  blocks pruned=0/1  dict_columns=2\n"
        "          -> SeqScan(fact: amount, ckey, pkey)  est_rows=2000  rows=2000  q=1.00  batches=1  self=0.060ms  buffer=1/0  dict_columns=2\n"
        "        -> Filter((cat < 3))  est_rows=240  rows=197  q=1.22  batches=1  self=0.014ms  buffer=0/0\n"
        "          -> SeqScan(part: cat, pkey)  est_rows=240  rows=240  q=1.00  batches=1  self=0.005ms  buffer=1/0  blocks pruned=0/1  dict_columns=2"),
    "vectorized": (
        "EXPLAIN ANALYZE (executor=vectorized)\n"
        "-- 10 operators, median q-error 2.23, max 50.00\n"
        "-> Sort(region ASC)  est_rows=50  rows=1  q=50.00  batches=1  self=0.000ms  buffer=0/0\n"
        "  -> Project(region, s)  est_rows=50  rows=1  q=50.00  batches=1  self=0.004ms  buffer=0/0\n"
        "    -> Aggregate(by region: sum(amount) AS s)  est_rows=50  rows=1  q=50.00  batches=1  self=0.012ms  buffer=0/0\n"
        "      -> HashJoin(pkey=pkey)  est_rows=240  rows=444  q=1.85  batches=2  self=0.008ms  buffer=0/0\n"
        "        -> NestedLoopJoin(ckey=ckey)  est_rows=40  rows=89  q=2.23  batches=2  self=0.360ms  buffer=0/0\n"
        "          -> Filter((region = 11))  est_rows=4  rows=9  q=2.25  batches=1  self=0.005ms  buffer=0/0\n"
        "            -> SeqScan(cust: ckey, region)  est_rows=200  rows=200  q=1.00  batches=1  self=0.004ms  buffer=1/0  blocks pruned=0/1  dict_columns=2\n"
        "          -> SeqScan(fact: amount, ckey, pkey)  est_rows=2000  rows=2000  q=1.00  batches=1  self=0.060ms  buffer=1/0  dict_columns=2\n"
        "        -> Filter((cat < 3))  est_rows=240  rows=197  q=1.22  batches=1  self=0.006ms  buffer=0/0\n"
        "          -> SeqScan(part: cat, pkey)  est_rows=240  rows=240  q=1.00  batches=1  self=0.005ms  buffer=1/0  blocks pruned=0/1  dict_columns=2"),
}


class TestQError:
    def test_perfect_estimate_scores_one(self):
        assert q_error(100, 100) == 1.0

    def test_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0

    def test_zero_rows_clamped(self):
        assert q_error(0, 0) == 1.0
        assert q_error(5, 0) == 5.0


class TestCollection:
    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_every_node_has_actuals(self, executor):
        engine = tiny_engine(executor)
        engine.execute(SQL)
        actuals = engine.last_actuals()
        assert isinstance(actuals, PlanActuals)
        assert actuals.executor == executor
        assert actuals.n_nodes >= 3
        for node in actuals.walk():
            assert node.actual_rows >= 0
            assert node.batches >= 1
            assert node.q_error >= 1.0

    def test_unexecuted_plan_refused(self):
        engine = tiny_engine()
        plan = engine.plan(SQL)
        with pytest.raises(PlanError, match="never executed"):
            NodeActuals.from_node(plan)

    def test_no_actuals_before_first_query(self):
        assert tiny_engine().last_actuals() is None

    def test_statistics_expose_last_plan(self):
        engine = tiny_engine()
        engine.execute(SQL)
        stats = engine.statistics()
        actuals = engine.last_actuals()
        assert stats["last_plan_nodes"] == float(actuals.n_nodes)
        assert stats["last_plan_median_qerror"] == \
            actuals.median_qerror()

    def test_exclusive_buffer_accounting(self):
        """A parent's hits/misses exclude its children's traffic."""
        engine = tiny_engine()
        result = engine.execute(SQL)
        scans = [n for n in result.plan.walk()
                 if isinstance(n, SeqScan)]
        assert scans, "plan should contain a scan"
        scan = scans[0]
        total = scan.buffer_hits + scan.buffer_misses
        assert total > 0  # the scan did the I/O...
        for node in result.plan.walk():
            if node is scan:
                continue
            # ...and nobody above it was billed for the same pages.
            assert node.buffer_hits + node.buffer_misses == 0


class TestExplainAnalyze:
    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_renders_est_actual_and_qerror(self, executor):
        engine = tiny_engine(executor)
        text = engine.explain_analyze(SQL)
        assert text.startswith(
            f"EXPLAIN ANALYZE (executor={executor})")
        assert "median q-error" in text
        for line in text.splitlines()[2:]:
            assert "est_rows=" in line
            assert "rows=" in line
            assert "q=" in line
            assert "buffer=" in line

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_star_query_text_pinned(self, executor):
        db = star_database(seed=7, n_fact=2_000)
        engine = Engine(db, EngineConfig(executor=executor,
                                         optimizer="cost"))
        engine.analyze()
        text = engine.explain_analyze(star_queries()[1].sql)
        assert text == STAR_EXPLAIN_ANALYZE[executor]

    def test_sql_prefix_routes_to_analyze(self):
        # fresh engines: both executions start from a cold buffer pool
        via_explain = tiny_engine().explain("EXPLAIN ANALYZE " + SQL)
        direct = tiny_engine().explain_analyze(SQL)
        assert via_explain == direct

    def test_plain_explain_still_renders_estimates(self):
        engine = tiny_engine()
        text = engine.explain("EXPLAIN " + SQL)
        assert "EXPLAIN ANALYZE" not in text

    def test_byte_identical_across_runs(self):
        first = tiny_engine("vectorized").explain_analyze(SQL)
        second = tiny_engine("vectorized").explain_analyze(SQL)
        assert first == second

    def test_repeated_execution_stays_identical(self):
        """The cached plan reports the same frozen estimates."""
        engine = tiny_engine(plan_cache=True)
        first = engine.explain_analyze(SQL)
        second = engine.explain_analyze(SQL)
        # simulated self-times shrink and buffer misses become hits
        # when the pool goes hot, but the est/actual/q columns must
        # not move
        def comparable(text):
            return [[p for p in line.split("  ") if
                     not p.startswith(("self=", "buffer="))]
                    for line in text.splitlines()]
        assert comparable(first)[2:] == comparable(second)[2:]

    def test_to_dict_roundtrip(self):
        engine = tiny_engine()
        engine.execute(SQL)
        payload = engine.last_actuals().to_dict()
        assert payload["n_nodes"] == engine.last_actuals().n_nodes
        assert payload["plan"]["children"]


class TestStripExplain:
    def test_analyze_prefix(self):
        mode, rest = strip_explain("  EXPLAIN ANALYZE SELECT 1 FROM t")
        assert mode == "analyze"
        assert rest == "SELECT 1 FROM t"

    def test_plain_explain(self):
        mode, rest = strip_explain("explain select k from t")
        assert mode == "explain"
        assert rest == "select k from t"

    def test_no_prefix(self):
        mode, rest = strip_explain("SELECT k FROM t")
        assert mode is None
        assert rest == "SELECT k FROM t"

    def test_explainx_is_not_explain(self):
        mode, __ = strip_explain("explainx something")
        assert mode is None
