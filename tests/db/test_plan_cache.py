"""Plan cache, EXPLAIN annotations and EngineConfig validation."""

import numpy as np
import pytest

from repro.db import (
    DataType,
    Database,
    Engine,
    EngineConfig,
    Table,
    normalize_sql,
    parser,
)
from repro.db import engine as engine_module
from repro.errors import DatabaseError
from repro.obs import Tracer


def make_db(n_t=1000, n_r=100):
    rng = np.random.default_rng(13)
    db = Database(name="cache_db")
    db.create_table(Table.from_columns(
        "t", [("k", DataType.INT64), ("v", DataType.FLOAT64)],
        {"k": rng.integers(0, n_r, size=n_t), "v": rng.random(n_t)}))
    db.create_table(Table.from_columns(
        "r", [("pk", DataType.INT64)],
        {"pk": np.arange(n_r, dtype=np.int64)}))
    return db


SQL = "SELECT k, SUM(v) AS s FROM t WHERE k < 50 GROUP BY k"


class TestNormalizeSql:
    def test_whitespace_and_keyword_case_insensitive(self):
        assert normalize_sql("select  k FROM t") == \
            normalize_sql("SELECT k\n  from t")

    def test_identifiers_stay_case_sensitive(self):
        assert normalize_sql("SELECT K FROM t") != \
            normalize_sql("SELECT k FROM t")

    def test_different_statements_differ(self):
        assert normalize_sql("SELECT k FROM t") != \
            normalize_sql("SELECT v FROM t")


class TestPlanCache:
    def engine(self, db=None, **kw):
        kw.setdefault("plan_cache", True)
        return Engine(db or make_db(), EngineConfig(**kw))

    def test_miss_then_hit(self):
        engine = self.engine()
        engine.execute(SQL)
        engine.execute(SQL)
        stats = engine.statistics()
        assert stats["plan_cache_misses"] == 1
        assert stats["plan_cache_hits"] == 1
        assert stats["plan_cache_size"] == 1

    def test_hit_across_textual_variants(self):
        engine = self.engine()
        engine.execute("SELECT k FROM t WHERE k < 5")
        engine.execute("select   k from t where k < 5")
        assert engine.statistics()["plan_cache_hits"] == 1

    def test_cached_results_identical(self):
        cold = Engine(make_db(), EngineConfig())
        cached = self.engine()
        first = cached.execute(SQL)
        second = cached.execute(SQL)
        assert first.rows == second.rows == cold.execute(SQL).rows
        assert cached.statistics()["plan_cache_hits"] == 1

    def test_invalidated_by_table_ddl(self):
        db = make_db()
        engine = self.engine(db)
        engine.execute(SQL)
        db.create_table(Table.from_columns(
            "extra", [("x", DataType.INT64)],
            {"x": np.arange(3, dtype=np.int64)}))
        engine.execute(SQL)
        stats = engine.statistics()
        assert stats["plan_cache_hits"] == 0
        assert stats["plan_cache_misses"] == 2

    def test_invalidated_by_index_ddl(self):
        db = make_db()
        engine = self.engine(db)
        engine.execute(SQL)
        engine.indexes.create(db.table("t"), "k")
        engine.execute(SQL)
        stats = engine.statistics()
        assert stats["plan_cache_hits"] == 0
        assert stats["plan_cache_misses"] == 2

    def test_off_by_default(self):
        engine = Engine(make_db(), EngineConfig())
        engine.execute(SQL)
        engine.execute(SQL)
        stats = engine.statistics()
        assert stats["plan_cache_hits"] == 0
        assert stats["plan_cache_misses"] == 0
        assert stats["plan_cache_size"] == 0

    def test_explain_annotates_hit_and_miss(self):
        engine = self.engine()
        first = engine.explain(SQL)
        second = engine.explain(SQL)
        assert first.startswith("-- plan cache: miss (1 entries)")
        assert second.startswith("-- plan cache: hit (1 entries)")

    def test_explain_silent_when_cache_off(self):
        engine = Engine(make_db(), EngineConfig())
        assert "plan cache" not in engine.explain(SQL)

    def test_analyze_drops_stale_plans(self):
        # A plan built under older catalog versions can never hit again.
        engine = self.engine()
        engine.execute(SQL)
        engine.analyze()
        engine.execute(SQL)
        stats = engine.statistics()
        assert stats["plan_cache_misses"] == 2
        assert stats["plan_cache_size"] == 1
        assert engine.explain(SQL).startswith(
            "-- plan cache: hit (1 entries)")

    def test_each_statement_tokenized_once(self, monkeypatch):
        calls = []
        tokenize = parser.tokenize

        def counted(sql):
            calls.append(sql)
            return tokenize(sql)

        monkeypatch.setattr(parser, "tokenize", counted)
        monkeypatch.setattr(engine_module, "tokenize", counted,
                            raising=False)
        engine = self.engine()
        statements = [SQL, "SELECT k FROM t WHERE k < 5", SQL,
                      "select k from t where k < 5",
                      "SELECT k FROM t JOIN r ON k = pk", SQL]
        for sql in statements:
            engine.execute(sql)
        stats = engine.statistics()
        assert (stats["plan_cache_misses"], stats["plan_cache_hits"]) == \
            (3, 3)
        assert len(calls) == len(statements)

    @pytest.mark.parametrize("plan_cache", [True, False],
                             ids=["cache", "no_cache"])
    def test_plan_and_explain_charge_nothing(self, plan_cache):
        # They take the executed statements' path, spans included, but
        # only an execution is charged for it.
        engine = self.engine(plan_cache=plan_cache, optimizer="cost")
        before = engine.clock.sample()
        tracer = Tracer(clock=engine.clock)
        with tracer.activate():
            for __ in range(2):  # a miss, then a hit
                engine.plan(SQL)
                engine.explain("SELECT k FROM t JOIN r ON k = pk")
        assert engine.clock.sample() == before
        spans = tracer.trace()
        names = {"engine.parse", "engine.optimize"}
        if plan_cache:
            names.add("engine.plan_cache")
        assert {span.name for span in spans} == names
        assert all(span.duration_s == 0.0 for span in spans)


class TestExplainKernelAnnotations:
    def test_vectorized_join_shows_kernel_and_build_side(self):
        engine = Engine(make_db(), EngineConfig(executor="vectorized"))
        text = engine.explain("SELECT k FROM t JOIN r ON k = pk")
        assert "kernel=vectorized" in text
        # r (100 rows) is smaller than t (1000): it stays the build side.
        assert "build=right" in text

    def test_build_side_flips_to_smaller_left(self):
        engine = Engine(make_db(n_t=50, n_r=5000),
                        EngineConfig(executor="vectorized"))
        text = engine.explain("SELECT k FROM t JOIN r ON k = pk")
        assert "build=left" in text

    def test_loop_explain_has_no_kernel_tag(self):
        engine = Engine(make_db(), EngineConfig())
        text = engine.explain("SELECT k FROM t JOIN r ON k = pk")
        assert "kernel=vectorized" not in text


class TestEngineConfigValidation:
    def test_unknown_executor_rejected_eagerly(self):
        with pytest.raises(DatabaseError) as excinfo:
            EngineConfig(executor="gpu")
        message = str(excinfo.value)
        assert "unknown executor 'gpu'" in message
        assert "'loop'" in message and "'vectorized'" in message

    def test_valid_executors_accepted(self):
        for executor in EngineConfig.VALID_EXECUTORS:
            assert EngineConfig(executor=executor).executor == executor
