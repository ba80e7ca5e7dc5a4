"""The multi-backend DatabaseSystem layer: adapters, translation,
plan forcing, and the fail-fast paths the comparison harness relies on."""

import numpy as np
import pytest

from repro.db import (
    DataType,
    Database,
    Engine,
    EngineConfig,
    MiniDBSystem,
    MiniDBVectorizedSystem,
    SystemResult,
    Table,
    default_systems,
    hint_comment,
    results_match,
)
from repro.errors import DatabaseError, SqlSyntaxError

STAR_SQL = ("SELECT region, SUM(amount) AS s "
            "FROM fact JOIN part ON pkey = pkey "
            "JOIN cust ON ckey = ckey "
            "WHERE region = 1 GROUP BY region ORDER BY region")


def tiny_star(seed: int = 3, n_fact: int = 240) -> Database:
    rng = np.random.default_rng(seed)
    db = Database(name="systems_test")
    db.create_table(Table.from_columns(
        "fact",
        [("ckey", DataType.INT64), ("pkey", DataType.INT64),
         ("amount", DataType.FLOAT64)],
        {"ckey": rng.integers(0, 20, n_fact),
         "pkey": rng.integers(0, 10, n_fact),
         "amount": rng.random(n_fact) * 100.0}))
    db.create_table(Table.from_columns(
        "cust",
        [("ckey", DataType.INT64), ("region", DataType.INT64)],
        {"ckey": np.arange(20, dtype=np.int64),
         "region": rng.integers(0, 4, 20)}))
    db.create_table(Table.from_columns(
        "part",
        [("pkey", DataType.INT64), ("cat", DataType.INT64)],
        {"pkey": np.arange(10, dtype=np.int64),
         "cat": rng.integers(0, 3, 10)}))
    return db


@pytest.fixture(scope="module")
def db():
    return tiny_star()


@pytest.fixture(scope="module")
def systems(db):
    loaded = default_systems()
    for system in loaded:
        system.connect()
        system.load(db)
    return loaded


@pytest.fixture(scope="module")
def sqlite(systems):
    return next(s for s in systems if s.name == "sqlite")


class TestResultEquivalence:
    def test_sorted_rows_is_canonical(self):
        a = SystemResult("a", ("x", "y"), ((2, 1.0), (1, 3.0)), 0.1)
        b = SystemResult("b", ("x", "y"), ((1, 3.0), (2, 1.0)), 0.2)
        assert a.sorted_rows() == b.sorted_rows()
        assert results_match(a, b)

    def test_float_tolerance_absorbs_aggregation_order(self):
        a = SystemResult("a", ("s",), ((100.000000000001,),), 0.1)
        b = SystemResult("b", ("s",), ((100.0,),), 0.1)
        assert results_match(a, b)

    def test_real_differences_detected(self):
        a = SystemResult("a", ("s",), ((100.0,),), 0.1)
        assert not results_match(
            a, SystemResult("b", ("s",), ((101.0,),), 0.1))
        assert not results_match(
            a, SystemResult("b", ("s",), ((100.0,), (1.0,)), 0.1))


class TestMiniDBAdapters:
    def test_executors_differ_but_results_match(self, systems):
        loop, vec, sqlite = systems
        r1, r2 = loop.execute(STAR_SQL), vec.execute(STAR_SQL)
        assert loop.config.executor == "loop"
        assert vec.config.executor == "vectorized"
        reference = sqlite.execute(STAR_SQL)
        assert results_match(r1, reference)
        assert results_match(r2, reference)
        assert r1.simulated_s is not None and r1.simulated_s > 0

    def test_label_overrides_name(self, db):
        system = MiniDBSystem(EngineConfig(), label="prototype-X")
        assert system.name == "prototype-X"
        assert MiniDBSystem().name == "minidb-loop"

    def test_runs_and_names_the_profile_its_config_names(self, db):
        system = MiniDBSystem(EngineConfig(executor="tuple"))
        assert system.name == "minidb-tuple"
        system.load(db)
        engine = Engine(db, EngineConfig(executor="tuple"))
        assert system.execute(STAR_SQL).simulated_s == \
            engine.execute(STAR_SQL).server_time.real

    def test_vectorized_alias_keeps_the_other_knobs(self):
        system = MiniDBVectorizedSystem(EngineConfig(plan_cache=True))
        assert isinstance(system, MiniDBSystem)
        assert system.name == "minidb-vectorized"
        assert system.config == EngineConfig(executor="vectorized",
                                             plan_cache=True)

    def test_execute_before_load_fails(self):
        with pytest.raises(DatabaseError, match="load"):
            MiniDBVectorizedSystem().execute(STAR_SQL)

    def test_config_disclosed(self, systems):
        for system in systems:
            config = system.describe_config()
            assert config  # non-empty: tuning-disclosed check
            assert all(isinstance(v, str) for v in config.values())

    def test_fingerprints_identical(self, systems, db):
        expected = {n: db.table(n).n_rows for n in db.table_names}
        for system in systems:
            assert system.data_fingerprint() == expected


class TestForcePlanValidation:
    def test_unknown_table_fails_fast(self, systems):
        for system in systems:
            with pytest.raises(DatabaseError, match="unknown table"):
                system.force_plan(STAR_SQL, ("fact", "part", "lineitem"))

    def test_incomplete_order_fails_fast(self, systems):
        for system in systems:
            with pytest.raises(DatabaseError, match="exactly once"):
                system.force_plan(STAR_SQL, ("fact", "part"))

    def test_double_forcing_refused(self, systems):
        order = ("cust", "fact", "part")
        for system in systems:
            forced = system.force_plan(STAR_SQL, order)
            with pytest.raises(DatabaseError, match="re-force"):
                system.force_plan(forced, order)

    def test_hint_comment_rejects_degenerate_orders(self):
        with pytest.raises(SqlSyntaxError):
            hint_comment(("fact",))
        with pytest.raises(SqlSyntaxError):
            hint_comment(("fact", "fact"))

    def test_forced_order_round_trips_through_explain(self, systems):
        for order in (("fact", "part", "cust"), ("cust", "fact", "part")):
            for system in systems:
                plan = system.explain(system.force_plan(STAR_SQL, order))
                assert plan.forced
                assert plan.join_order == order, system.name

    def test_forcing_does_not_change_results(self, systems):
        loop = systems[0]
        reference = loop.execute(STAR_SQL)
        for order in (("fact", "part", "cust"), ("cust", "fact", "part")):
            for system in systems:
                forced = system.execute(system.force_plan(STAR_SQL, order))
                assert results_match(reference, forced), \
                    f"{system.name} {order}"


class TestSqliteTranslation:
    def test_columns_qualified_and_aliased(self, sqlite):
        translated = sqlite.translate(STAR_SQL)
        assert "cust.region" in translated
        assert 'AS "s"' in translated
        assert "fact.pkey = part.pkey" in translated \
            or "part.pkey = fact.pkey" in translated

    def test_forced_order_renders_cross_join(self, sqlite):
        forced = sqlite.force_plan(STAR_SQL, ("cust", "fact", "part"))
        translated = sqlite.translate(forced)
        assert "cust CROSS JOIN fact CROSS JOIN part" in translated

    def test_division_casts_to_real(self, sqlite, systems):
        sql = ("SELECT region, SUM(amount / 4) AS q FROM fact "
               "JOIN cust ON ckey = ckey GROUP BY region ORDER BY region")
        assert "CAST" in sqlite.translate(sql)
        assert results_match(systems[0].execute(sql), sqlite.execute(sql))

    def test_physical_hints_fail_fast(self, sqlite):
        hinted = f"/*+ JOIN_OP(part hash) */ {STAR_SQL}"
        with pytest.raises(DatabaseError, match="physical-operator"):
            sqlite.execute(hinted)

    def test_statistics_count_statements(self, sqlite):
        before = sqlite.statistics()["statements_executed"]
        sqlite.execute(STAR_SQL)
        assert sqlite.statistics()["statements_executed"] == before + 1


class TestSupportsPlanForcingFlag:
    def test_refusal_raises_database_error(self, db):
        class NoForce(MiniDBSystem):
            supports_plan_forcing = False

        system = NoForce(label="no-force")
        system.load(db)
        with pytest.raises(DatabaseError, match="does not support"):
            system.force_plan(STAR_SQL, ("fact", "part", "cust"))
