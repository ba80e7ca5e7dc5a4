"""Regression tests that hold MiniDB against SQLite on the cases where
the two used to disagree, or where the SQLite reference itself broke."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.db import (
    Arithmetic,
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    DataType,
    Database,
    Engine,
    EngineConfig,
    Expr,
    InList,
    Like,
    Literal,
    Not,
    SystemResult,
    Table,
    parse_select,
    results_match,
)
from repro.db.systems import SQLiteSystem
from repro.errors import PlanError, SqlSyntaxError
from tests.db.reference import check


def _strings_db():
    db = Database(name="strings")
    db.create_table(Table.from_columns(
        "t", [("id", DataType.INT64), ("s", DataType.STRING),
              ("x", DataType.FLOAT64)],
        {"id": np.arange(6, dtype=np.int64),
         "s": ["Abc", "abc", "ABC", "a_c", "it's", "a*c"],
         "x": np.array([1.0, np.nan, 3.0, np.nan, 5.0, 6.0])}))
    return db


def _node_kinds(expr: Expr) -> set:
    """The expression classes in the tree under *expr*."""
    kinds = {type(expr)}
    for field in dataclasses.fields(expr):
        value = getattr(expr, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Expr):
                kinds |= _node_kinds(child)
    return kinds


#: One query per expression node kind, over :func:`_strings_db`.
NODE_QUERIES = {
    ColumnRef: "SELECT id, s FROM t",
    Literal: "SELECT id, 7 AS seven FROM t WHERE s = 'abc'",
    Arithmetic: "SELECT id, id * 2 - x / 4 AS y FROM t",
    Comparison: "SELECT id FROM t WHERE x >= 3",
    BoolOp: "SELECT id FROM t WHERE id < 2 OR x > 4 AND id <> 5",
    Not: "SELECT id FROM t WHERE NOT (s = 'abc')",
    Between: "SELECT id FROM t WHERE id BETWEEN 1 AND 4",
    InList: "SELECT id FROM t WHERE s IN ('abc', 'it''s')",
    Like: "SELECT id FROM t WHERE s LIKE 'a%'",
}


class TestEveryNodeKind:
    """Each expression node kind runs in a query SQLite checks."""

    @pytest.mark.parametrize("kind", list(NODE_QUERIES),
                             ids=lambda kind: kind.__name__)
    def test_node_kind(self, kind):
        sql = NODE_QUERIES[kind]
        statement = parse_select(sql)
        exprs = [item.expr for item in statement.items
                 if item.expr is not None] + [statement.where]
        assert any(kind in _node_kinds(expr) for expr in exprs
                   if expr is not None)
        check(_strings_db(), sql)


class TestRendering:
    def test_not_renders(self):
        db = _strings_db()
        rows = check(db, "SELECT id FROM t WHERE NOT (id < 3) ORDER BY id")
        assert rows == ((3,), (4,), (5,))

    def test_not_in_having(self):
        check(_strings_db(), "SELECT s, COUNT(*) AS n FROM t GROUP BY s "
                             "HAVING NOT (n > 1)")

    @pytest.mark.parametrize("pattern, expected", [
        ("a%", ((1,), (3,), (5,))),     # case-sensitive, unlike LIKE
        ("A%", ((0,), (2,))),
        ("a_c", ((1,), (3,), (5,))),
        ("a*c", ((5,),)),                # GLOB metacharacter is a literal
        ("it''s", ((4,),)),             # quote survives translation
    ])
    def test_like_is_case_sensitive(self, pattern, expected):
        rows = check(_strings_db(),
                     f"SELECT id FROM t WHERE s LIKE '{pattern}' ORDER BY id")
        assert rows == expected


class TestNullResults:
    def test_null_bearing_result_matches_sqlite(self):
        rows = check(_strings_db(), "SELECT id, x FROM t ORDER BY id")
        assert np.isnan(rows[1][1]) and np.isnan(rows[3][1])
        check(_strings_db(), "SELECT id, x FROM t")

    def test_nan_and_none_are_one_null(self):
        def result(*rows):
            return SystemResult(system="s", columns=("a", "b"),
                                rows=rows, wall_s=0.0)
        minidb = result((1, float("nan")), (2, 0.5), (3, float("nan")))
        sqlite = result((3, None), (1, None), (2, 0.5))
        assert results_match(minidb, minidb)
        assert results_match(minidb, sqlite)
        assert not results_match(minidb, result((1, 0.0), (2, 0.5),
                                                (3, None)))

    def test_sqlite_stores_nan_as_null(self):
        system = SQLiteSystem()
        system.load(_strings_db())
        try:
            rows = system.execute("SELECT x FROM t ORDER BY id").rows
        finally:
            system.close()
        assert rows[1] == (None,)


def _null_values_db():
    db = Database(name="null_values")
    db.create_table(Table.from_columns(
        "t", [("g", DataType.INT64), ("k", DataType.INT64),
              ("x", DataType.FLOAT64)],
        {"g": np.array([1, 1, 1, 2, 2, 3], dtype=np.int64),
         "k": np.array([10, 20, 30, 40, 50, 60], dtype=np.int64),
         "x": np.array([1.5, np.nan, -2.0, np.nan, np.nan, 4.0])}))
    return db


class TestAggregateNulls:
    """Aggregates skip NULLs; over no non-NULL input they are NULL."""

    @pytest.mark.parametrize("agg", ["SUM(x)", "AVG(x)", "MIN(x)",
                                     "MAX(x)", "COUNT(x)", "COUNT(*)"])
    def test_grouped_skips_nulls(self, agg):
        # Group 1 holds a NULL, group 2 holds only NULLs.
        rows = check(_null_values_db(),
                     f"SELECT g, {agg} AS a FROM t GROUP BY g ORDER BY g")
        assert len(rows) == 3

    def test_global_skips_nulls(self):
        rows = check(_null_values_db(),
                     "SELECT SUM(x) AS s, AVG(x) AS a, MIN(x) AS lo, "
                     "MAX(x) AS hi, COUNT(x) AS n, COUNT(*) AS m FROM t")
        assert rows == ((3.5, 3.5 / 3, -2.0, 4.0, 3, 6),)

    @pytest.mark.parametrize("agg", ["SUM(k)", "AVG(k)", "MIN(k)",
                                     "MAX(k)", "SUM(x)", "MIN(x)",
                                     "COUNT(k)", "COUNT(*)"])
    def test_over_zero_rows(self, agg):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check(_null_values_db(), f"SELECT {agg} AS a FROM t WHERE k < 0")


def _nulls_db():
    """Five rows with NULLs in ``x`` and zeros in ``d``."""
    db = Database(name="nulls")
    db.create_table(Table.from_columns(
        "t", [("id", DataType.INT64), ("d", DataType.INT64),
              ("x", DataType.FLOAT64)],
        {"id": np.arange(5, dtype=np.int64),
         "d": np.array([1, 0, 2, 0, 4], dtype=np.int64),
         "x": np.array([1.0, np.nan, 3.0, np.nan, 5.0])}))
    return db


class TestPredicateNulls:
    """A predicate keeps the rows where it is TRUE.  A NULL operand
    makes a comparison UNKNOWN, and NOT of UNKNOWN is UNKNOWN."""

    @pytest.fixture(params=[True, False], ids=["zone_maps", "no_zone_maps"])
    def zone_maps(self, request):
        return request.param

    @pytest.mark.parametrize("sql, expected", [
        ("SELECT id FROM t WHERE x <> 3", {0, 4}),
        ("SELECT id FROM t WHERE NOT (x > 2)", {0}),
        ("SELECT id FROM t WHERE NOT (x BETWEEN 2 AND 4)", {0, 4}),
        ("SELECT id FROM t WHERE NOT (x IN (1, 5))", {2}),
        # Row 3: x > 2 is UNKNOWN but id < 3 is FALSE, so the AND is
        # FALSE and NOT keeps the NULL row.
        ("SELECT id FROM t WHERE NOT (x > 2 AND id < 3)", {0, 3, 4}),
        ("SELECT id FROM t WHERE NOT (x > 4 OR id = 0)", {2}),
    ], ids=["not_equal", "not_greater", "not_between", "not_in",
            "not_and", "not_or"])
    def test_where(self, sql, expected, zone_maps):
        rows = check(_nulls_db(), sql, zone_maps=zone_maps)
        assert {row[0] for row in rows} == expected

    def test_division_by_zero_is_null(self, zone_maps):
        rows = check(_nulls_db(), "SELECT id, id / d AS q FROM t ORDER BY id",
                     zone_maps=zone_maps)
        assert [bool(np.isnan(q)) for __, q in rows] == \
            [False, True, False, True, False]

    def test_zone_maps_and_filter_agree_on_not_equal(self, zone_maps):
        x = np.ones(4096)
        x[:1024] = np.nan        # block 0 is all NULL
        x[1024:1030] = np.nan    # block 1 holds six NULLs
        db = Database(name="null_blocks")
        db.create_table(Table.from_columns(
            "t", [("x", DataType.FLOAT64)], {"x": x}))
        rows = check(db, "SELECT COUNT(*) AS n FROM t WHERE x <> 3",
                     zone_maps=zone_maps)
        assert rows == ((3066,),)


def _postfix_not_db(n: int = 3_000):
    """*n* rows; about a fifth of ``x`` is NULL."""
    rng = np.random.default_rng(29)
    x = rng.integers(0, 10, n).astype(np.float64)
    x[rng.random(n) < 0.2] = np.nan
    db = Database(name="postfix_not")
    db.create_table(Table.from_columns(
        "t", [("id", DataType.INT64), ("a", DataType.INT64),
              ("s", DataType.STRING), ("x", DataType.FLOAT64)],
        {"id": np.arange(n, dtype=np.int64),
         "a": rng.integers(0, 5, n),
         "s": rng.choice(["xa", "xb", "ya", "zb"], n),
         "x": x}))
    return db


class TestPostfixNot:
    """``x NOT LIKE``, ``x NOT IN`` and ``x NOT BETWEEN`` parse as the
    negation of the predicate, so a NULL operand keeps its row out."""

    @pytest.fixture(scope="class")
    def db(self):
        return _postfix_not_db()

    @pytest.mark.parametrize("zone_maps", [True, False],
                             ids=["zone_maps", "no_zone_maps"])
    @pytest.mark.parametrize("predicate, keep", [
        ("s NOT LIKE 'x%'", lambda t: ~np.char.startswith(t["s"], "x")),
        ("x NOT IN (1, 5)", lambda t: (t["x"] != 1) & (t["x"] != 5)
         & ~np.isnan(t["x"])),
        ("a NOT BETWEEN 1 AND 2", lambda t: (t["a"] < 1) | (t["a"] > 2)),
        ("x NOT BETWEEN 2 AND 6", lambda t: (t["x"] < 2) | (t["x"] > 6)),
        ("NOT x NOT IN (1, 5)", lambda t: (t["x"] == 1) | (t["x"] == 5)),
        ("x NOT IN (1, 5) AND id NOT BETWEEN 100 AND 2900",
         lambda t: (t["x"] != 1) & (t["x"] != 5) & ~np.isnan(t["x"])
         & ((t["id"] < 100) | (t["id"] > 2900))),
    ], ids=["not_like", "not_in", "not_between", "not_between_nulls",
            "not_not_in", "conjunction"])
    def test_count_matches_sqlite(self, db, predicate, keep, zone_maps):
        rows = check(db, f"SELECT COUNT(*) AS n FROM t WHERE {predicate}",
                     zone_maps=zone_maps)
        table = db.table("t")
        columns = {name: np.asarray(table.column(name).data.tolist())
                   for name in table.column_names}
        assert rows == ((int(keep(columns).sum()),),)

    @pytest.mark.parametrize("zone_maps", [True, False],
                             ids=["zone_maps", "no_zone_maps"])
    def test_rows_and_groups_match_sqlite(self, db, zone_maps):
        check(db, "SELECT id, x FROM t WHERE x NOT BETWEEN 3 AND 8 "
                  "AND s NOT LIKE '%b' ORDER BY id", zone_maps=zone_maps)
        check(db, "SELECT a, COUNT(*) AS n, SUM(x) AS total FROM t "
                  "WHERE x NOT IN (0, 2, 4) GROUP BY a ORDER BY a",
              zone_maps=zone_maps)

    def test_parses_as_negation(self):
        where = parse_select("SELECT id FROM t WHERE x NOT IN (1, 5)").where
        assert where == Not(InList(ColumnRef("x"), (1, 5)))
        where = parse_select("SELECT id FROM t WHERE NOT x NOT LIKE 'a%'"
                             ).where
        assert where == Not(Not(Like(ColumnRef("x"), "a%")))
        where = parse_select(
            "SELECT id FROM t WHERE x not between 1 and 2").where
        assert where == Not(Between(ColumnRef("x"), Literal(1),
                                    Literal(2)))

    def test_other_postfix_not_refused(self):
        with pytest.raises(SqlSyntaxError, match="BETWEEN, IN or LIKE"):
            parse_select("SELECT id FROM t WHERE x NOT = 3")


def _null_keys_db():
    db = Database(name="null_keys")
    db.create_table(Table.from_columns(
        "a", [("id", DataType.INT64), ("k", DataType.FLOAT64)],
        {"id": np.arange(4, dtype=np.int64),
         "k": np.array([1.0, np.nan, 2.0, np.nan])}))
    db.create_table(Table.from_columns(
        "b", [("pk", DataType.FLOAT64), ("w", DataType.INT64)],
        {"pk": np.array([np.nan, 1.0, 2.0]),
         "w": np.array([10, 11, 12], dtype=np.int64)}))
    return db


class TestNullJoinKeys:
    """A NULL join key matches nothing, not even another NULL."""

    @pytest.mark.parametrize("op", ["hash", "merge", "loop", "radix"])
    def test_every_join_operator(self, op):
        rows = check(_null_keys_db(), "SELECT id, w FROM a JOIN b ON k = pk "
                                      f"/*+ JOIN_OP(b {op}) */")
        assert sorted(rows) == [(0, 11), (2, 12)]

    def test_radix_partitions_drop_null_keys(self):
        check(_null_keys_db(), "SELECT id, w FROM a JOIN b ON k = pk "
                               "/*+ JOIN_OP(b radix) */", radix_bits=3)


class TestDescendingTies:
    """ORDER BY ... DESC keeps ties in input order, as a stable sort."""

    def _db(self):
        db = Database(name="ties")
        db.create_table(Table.from_columns(
            "t", [("id", DataType.INT64), ("g", DataType.INT64),
                  ("s", DataType.STRING)],
            {"id": np.arange(6, dtype=np.int64),
             "g": np.array([1, 1, 2, 2, 3, 3], dtype=np.int64),
             "s": ["x", "x", "y", "y", "z", "z"]}))
        return db

    def test_desc_then_asc_under_limit(self):
        rows = check(self._db(),
                     "SELECT id, g FROM t ORDER BY g DESC, id LIMIT 3")
        assert rows == ((4, 3), (5, 3), (2, 2))

    def test_string_desc_ties(self):
        rows = check(self._db(),
                     "SELECT id, s FROM t ORDER BY s DESC, id LIMIT 4")
        assert [r[0] for r in rows] == [4, 5, 2, 3]

    def test_desc_on_both_keys(self):
        check(self._db(), "SELECT id, g FROM t ORDER BY g DESC, id DESC")


def _order_db():
    db = Database(name="order")
    db.create_table(Table.from_columns(
        "t", [("id", DataType.INT64), ("g", DataType.INT64),
              ("s", DataType.STRING), ("x", DataType.FLOAT64)],
        {"id": np.arange(8, dtype=np.int64),
         "g": np.array([2, 1, 3, 1, 2, 3, 1, 2], dtype=np.int64),
         "s": ["d", "h", "b", "f", "a", "g", "c", "e"],
         "x": np.array([0.5, 7.0, 2.5, -1.0, 4.0, 3.5, 6.0, 1.5])}))
    db.create_table(Table.from_columns(
        "u", [("gid", DataType.INT64), ("label", DataType.STRING)],
        {"gid": np.array([1, 2, 3], dtype=np.int64),
         "label": ["one", "two", "three"]}))
    return db


class TestOrderByInputColumn:
    """ORDER BY may name an input column the SELECT list does not: the
    Sort then runs below the output Project.  What cannot sort there is
    refused when planned, not when executed."""

    @pytest.fixture(params=["heuristic", "cost"])
    def optimizer(self, request):
        return request.param

    @pytest.mark.parametrize("zone_maps", [True, False],
                             ids=["zone_maps", "no_zone_maps"])
    @pytest.mark.parametrize("sql, expected", [
        ("SELECT id FROM t ORDER BY s DESC LIMIT 5",
         ((1,), (5,), (3,), (7,), (0,))),
        ("SELECT id, x FROM t WHERE x > 1 ORDER BY s", None),
        # ``i`` aliases the bare column id, which the Sort keys on.
        ("SELECT id AS i FROM t ORDER BY g DESC, i LIMIT 4",
         ((2,), (5,), (0,), (4,))),
        # An output alias wins over the input column it shadows.
        ("SELECT s AS id FROM t ORDER BY g, id",
         (("c",), ("f",), ("h",), ("a",), ("d",), ("e",), ("b",), ("g",))),
        ("SELECT id * 2 AS twice FROM t WHERE g >= 2 ORDER BY x DESC",
         ((8,), (10,), (4,), (14,), (0,))),
        ("SELECT id, label FROM t JOIN u ON g = gid ORDER BY x LIMIT 3",
         ((3, "one"), (0, "two"), (7, "two"))),
    ], ids=["limit", "where", "alias_key", "shadowing_alias", "computed",
            "join"])
    def test_matches_sqlite(self, sql, expected, optimizer, zone_maps):
        rows = check(_order_db(), sql, optimizer=optimizer,
                     zone_maps=zone_maps)
        if expected is not None:
            assert rows == expected

    def test_sorts_below_the_project(self, optimizer):
        engine = Engine(_order_db(), EngineConfig(optimizer=optimizer))
        plan = engine.explain("SELECT id FROM t ORDER BY s DESC LIMIT 5")
        nodes = [line.strip().split("(")[0] for line in plan.splitlines()]
        assert nodes == ["-> Limit", "-> Project", "-> Sort", "-> SeqScan"]

    @pytest.mark.parametrize("sql, message", [
        ("SELECT DISTINCT id FROM t ORDER BY s", "SELECT DISTINCT"),
        ("SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY s",
         "not in the output"),
        ("SELECT id + 1 AS j FROM t ORDER BY s, j", "computed output"),
    ], ids=["distinct", "grouped", "computed_alias"])
    def test_refused_when_planned(self, sql, message, optimizer):
        engine = Engine(_order_db(), EngineConfig(optimizer=optimizer))
        with pytest.raises(PlanError, match=message):
            engine.explain(sql)
