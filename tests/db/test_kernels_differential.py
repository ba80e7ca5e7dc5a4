"""Differential tests: MiniDB's executor against SQLite.

Every query here runs over seeded random data on in-process SQLite and
on MiniDB under each executor, and the results must agree: in order
when the query has ORDER BY, as multisets otherwise (GROUP BY emits
key-sorted groups, which SQL does not promise).
"""

import numpy as np
import pytest

from repro.db import DataType, Database, Table
from tests.db.reference import check


def random_db(seed, n=500, n_right=60):
    """Two tables with strings, floats, ints and duplicate join keys."""
    rng = np.random.default_rng(seed)
    db = Database(name=f"diff_{seed}")
    db.create_table(Table.from_columns(
        "t",
        [("id", DataType.INT64), ("k", DataType.INT64),
         ("v", DataType.FLOAT64), ("tag", DataType.STRING)],
        {"id": np.arange(n, dtype=np.int64),
         "k": rng.integers(0, n_right * 2, size=n),
         "v": rng.random(n) * 100.0,
         "tag": [f"tag{int(x)}" for x in rng.integers(0, 7, size=n)]}))
    db.create_table(Table.from_columns(
        "r",
        [("pk", DataType.INT64), ("w", DataType.FLOAT64)],
        {"pk": np.arange(n_right, dtype=np.int64),
         "w": rng.random(n_right)}))
    return db


SEEDS = (3, 11, 42)


class TestSelectionPipelines:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_filter_project(self, seed):
        db = random_db(seed)
        check(db, "SELECT id, v FROM t WHERE k < 40")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_filter_sort_limit(self, seed):
        db = random_db(seed)
        check(db, "SELECT id, k FROM t WHERE v > 25 ORDER BY k, id "
                  "LIMIT 17")

    def test_string_predicates(self):
        db = random_db(5)
        check(db, "SELECT id, tag FROM t WHERE tag = 'tag3'")
        check(db, "SELECT id FROM t WHERE tag LIKE 'tag%' AND k > 10")
        check(db, "SELECT id FROM t WHERE tag IN ('tag1', 'tag5')")

    def test_all_rows_filtered(self):
        db = random_db(1)
        assert check(db, "SELECT id, v FROM t WHERE k < 0") == ()
        assert check(db, "SELECT tag, SUM(v) AS s FROM t WHERE k < 0 "
                         "GROUP BY tag") == ()

    def test_no_rows_filtered(self):
        db = random_db(2)
        rows = check(db, "SELECT id FROM t WHERE k >= 0")
        assert len(rows) == 500

    def test_empty_table(self):
        db = Database(name="empty")
        db.create_table(Table.from_columns(
            "t", [("k", DataType.INT64), ("v", DataType.FLOAT64)],
            {"k": np.empty(0, dtype=np.int64),
             "v": np.empty(0, dtype=np.float64)}))
        assert check(db, "SELECT k, v FROM t WHERE k > 3") == ()
        assert check(db, "SELECT k, SUM(v) AS s FROM t GROUP BY k") == ()
        # Global aggregates over zero rows still yield one row: COUNT is
        # 0 and SUM is NULL.
        rows = check(db, "SELECT COUNT(*) AS n, SUM(v) AS s FROM t")
        assert rows[0][0] == 0 and np.isnan(rows[0][1])


class TestJoins:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hash_join_duplicate_keys(self, seed):
        db = random_db(seed)
        check(db, "SELECT id, w FROM t JOIN r ON k = pk")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_join_then_filter(self, seed):
        db = random_db(seed)
        check(db, "SELECT id, k, w FROM t JOIN r ON k = pk "
                  "WHERE v > 50 ORDER BY id, k LIMIT 100")

    def test_join_no_matches(self):
        rng = np.random.default_rng(9)
        db = Database(name="nomatch")
        db.create_table(Table.from_columns(
            "t", [("k", DataType.INT64)],
            {"k": rng.integers(100, 200, size=50)}))
        db.create_table(Table.from_columns(
            "r", [("pk", DataType.INT64)],
            {"pk": np.arange(10, dtype=np.int64)}))
        assert check(db, "SELECT k, pk FROM t JOIN r ON k = pk") == ()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_join_aggregate(self, seed):
        db = random_db(seed)
        check(db, "SELECT SUM(v * w) AS dot FROM t JOIN r ON k = pk")


class TestAggregates:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_group_by_sorted_rowset(self, seed):
        db = random_db(seed)
        check(db, "SELECT tag, SUM(v) AS s, COUNT(*) AS n, "
                  "MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS a "
                  "FROM t GROUP BY tag")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_group_by_int_key_with_filter(self, seed):
        db = random_db(seed)
        check(db, "SELECT k, COUNT(*) AS n FROM t WHERE v > 30 "
                  "GROUP BY k")

    def test_global_aggregates(self):
        db = random_db(8)
        check(db, "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, "
                  "MIN(k) AS lo, MAX(k) AS hi FROM t")

    def test_distinct_keeps_loop_order(self):
        """DISTINCT returns SQLite's rows in first-occurrence order."""
        db = random_db(4)
        table = db.table("t")
        tags = table.column("tag").data
        keys = table.column("k").data
        rows = check(db, "SELECT DISTINCT tag FROM t")
        assert rows == tuple((tag,) for tag in dict.fromkeys(tags))
        rows = check(db, "SELECT DISTINCT k, tag FROM t WHERE k < 20")
        pairs = ((int(k), tag) for k, tag in zip(keys, tags) if k < 20)
        assert rows == tuple(dict.fromkeys(pairs))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_having(self, seed):
        db = random_db(seed)
        check(db, "SELECT tag, COUNT(*) AS n FROM t GROUP BY tag "
                  "HAVING n > 40")


class TestSelectionVectorToggle:
    """Selection vectors on or off: the same rows as SQLite."""

    @pytest.mark.parametrize("selvec", (True, False))
    def test_filter_results_identical(self, selvec):
        db = random_db(6)
        executor = "vectorized" if selvec else "vectorized-eager"
        check(db, "SELECT id, v FROM t WHERE k < 33 ORDER BY id LIMIT 40",
              executors=(executor,))
