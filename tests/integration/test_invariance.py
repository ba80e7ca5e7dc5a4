"""Cross-configuration invariance: every engine config, same answers.

Executor cost profile, build mode, planner tuning, buffer size, and indexes may
change *when* a query finishes — never *what* it returns.  These tests
run the whole TPC-H workload and randomized micro-queries under many
configurations and demand bit-identical results, plus oracle checks of
random WHERE clauses against plain-Python evaluation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Database,
    DataType,
    Engine,
    EngineConfig,
    Table,
)
from repro.hardware import BuildMode, BuildModel
from repro.workloads import all_query_numbers, generate_tpch, tpch_query

SF = 0.002


@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch(sf=SF, seed=42)


def canonical(result):
    """Sorted row multiset with floats rounded (sim-cost independent)."""
    rounded = []
    for row in result.rows:
        rounded.append(tuple(
            round(v, 6) if isinstance(v, float) else v for v in row))
    return sorted(rounded), result.columns


CONFIGS = {
    "default": EngineConfig(),
    "tuple-mode": EngineConfig(executor="tuple"),
    "vectorized": EngineConfig(executor="vectorized"),
    "dbg-build": EngineConfig(build=BuildModel(BuildMode.DBG)),
    "untuned": EngineConfig.untuned(),
    "naive-joins": EngineConfig.untuned(naive_joins=True,
                                        buffer_pages=4096),
    "tiny-buffer": EngineConfig(buffer_pages=4),
}


class TestTpchInvariance:
    @pytest.mark.parametrize("query", all_query_numbers())
    def test_all_configs_agree(self, tpch_db, query):
        sql = tpch_query(query)
        reference = None
        for name, config in CONFIGS.items():
            result = Engine(tpch_db, config).execute(sql)
            snapshot = canonical(result)
            if reference is None:
                reference = (name, snapshot)
            else:
                assert snapshot == reference[1], \
                    f"Q{query}: {name} disagrees with {reference[0]}"

    def test_index_does_not_change_answers(self, tpch_db):
        sql = ("SELECT l_orderkey, l_extendedprice FROM lineitem "
               "WHERE l_linenumber = 1 AND l_quantity < 10 "
               "ORDER BY l_orderkey, l_extendedprice LIMIT 50")
        plain = Engine(tpch_db).execute(sql)
        indexed_engine = Engine(tpch_db)
        indexed_engine.create_index("lineitem", "l_linenumber")
        indexed = indexed_engine.execute(sql)
        assert plain.rows == indexed.rows

    def test_rerun_is_deterministic(self, tpch_db):
        engine = Engine(tpch_db)
        first = engine.execute(tpch_query(5))
        second = engine.execute(tpch_query(5))
        assert first.rows == second.rows

    def test_fresh_database_same_results(self):
        """Regenerating the dataset from the seed reproduces results."""
        a = Engine(generate_tpch(sf=SF, seed=42)).execute(tpch_query(6))
        b = Engine(generate_tpch(sf=SF, seed=42)).execute(tpch_query(6))
        assert a.rows == b.rows


@st.composite
def predicate_case(draw):
    """A random table + WHERE clause with a Python-computable oracle."""
    n = draw(st.integers(min_value=1, max_value=60))
    ks = draw(st.lists(st.integers(min_value=-20, max_value=20),
                       min_size=n, max_size=n))
    vs = draw(st.lists(st.integers(min_value=-20, max_value=20),
                       min_size=n, max_size=n))
    low = draw(st.integers(min_value=-20, max_value=20))
    high = draw(st.integers(min_value=-20, max_value=20))
    eq = draw(st.integers(min_value=-20, max_value=20))
    kind = draw(st.sampled_from(["between", "or", "not"]))
    return n, ks, vs, low, high, eq, kind


class TestRandomPredicateOracle:
    @given(predicate_case())
    @settings(max_examples=40, deadline=None)
    def test_where_matches_python(self, case):
        n, ks, vs, low, high, eq, kind = case
        db = Database()
        db.create_table(Table.from_columns(
            "t", [("k", DataType.INT64), ("v", DataType.INT64)],
            {"k": ks, "v": vs}))
        engine = Engine(db)
        if kind == "between":
            sql = f"SELECT k, v FROM t WHERE k BETWEEN {low} AND {high}"
            keep = [(k, v) for k, v in zip(ks, vs) if low <= k <= high]
        elif kind == "or":
            sql = f"SELECT k, v FROM t WHERE k = {eq} OR v > {low}"
            keep = [(k, v) for k, v in zip(ks, vs) if k == eq or v > low]
        else:
            sql = f"SELECT k, v FROM t WHERE NOT k < {eq}"
            keep = [(k, v) for k, v in zip(ks, vs) if not k < eq]
        result = engine.execute(sql)
        assert sorted(result.rows) == sorted(keep)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-50, 50)),
                    min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_group_by_matches_python(self, pairs):
        db = Database()
        db.create_table(Table.from_columns(
            "t", [("g", DataType.INT64), ("x", DataType.INT64)],
            {"g": [g for g, __ in pairs], "x": [x for __, x in pairs]}))
        result = Engine(db).execute(
            "SELECT g, SUM(x) AS s, COUNT(*) AS n FROM t GROUP BY g "
            "ORDER BY g")
        expected = {}
        for g, x in pairs:
            s, c = expected.get(g, (0, 0))
            expected[g] = (s + x, c + 1)
        got = {row[0]: (row[1], row[2]) for row in result.rows}
        assert got == expected
        assert result.column("g") == sorted(expected)
