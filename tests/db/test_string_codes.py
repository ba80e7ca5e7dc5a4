"""STRING columns travel through the executor as dictionary codes.

Every query here runs on SQLite and on MiniDB under each cost profile
(:func:`tests.db.reference.check`).  The cases are the ones where codes
could go wrong: literals outside or between the dictionary's values,
IN members the dictionary lacks, LIKE, a string BETWEEN (which decodes
first), joins and comparisons across two dictionaries, key operators
after a join, and an empty table.  A guard checks that no operator
hands ``dict_encode`` a decoded string array on the TPC-H queries.
"""

import datetime

import numpy as np
import pytest

from repro.db import DataType, Database, Engine, EngineConfig, Table, kernels
from repro.db.storage import Dictionary
from repro.db.types import days_to_date
from repro.workloads import tpch
from tests.db.reference import EXECUTORS, check

#: The dictionary of ``t.s`` is {bravo, delta, foxtrot, hotel}.
WORDS = ["delta", "bravo", "hotel", "delta", "foxtrot", "bravo", "delta",
         "hotel", "bravo", "foxtrot"]


def _db():
    db = Database(name="codes")
    n = len(WORDS)
    db.create_table(Table.from_columns(
        "t", [("id", DataType.INT64), ("s", DataType.STRING),
              ("g", DataType.INT64), ("x", DataType.FLOAT64)],
        {"id": np.arange(n, dtype=np.int64), "s": WORDS,
         "g": np.arange(n, dtype=np.int64) % 3,
         "x": np.where(np.arange(n) % 4 == 1, np.nan,
                       np.arange(n) * 1.5)}))
    # Join keys over different dictionaries: {a, c, e} and {b, c, d, e}.
    db.create_table(Table.from_columns(
        "l", [("lk", DataType.STRING), ("lv", DataType.INT64)],
        {"lk": ["e", "a", "c", "e", "c"], "lv": [1, 2, 3, 4, 5]}))
    db.create_table(Table.from_columns(
        "r", [("rk", DataType.STRING), ("rv", DataType.INT64)],
        {"rk": ["b", "c", "d", "e", "c", "b"], "rv": [1, 2, 3, 4, 5, 6]}))
    db.create_table(Table.from_columns(
        "e", [("eid", DataType.INT64), ("es", DataType.STRING)],
        {"eid": np.zeros(0, dtype=np.int64), "es": []}))
    return db


#: Literals below the dictionary's minimum, equal to its minimum,
#: between two values, equal to a value, equal to its maximum and above
#: its maximum.
LITERALS = ["alpha", "bravo", "charlie", "delta", "hotel", "zulu"]
OPS = ["=", "<>", "<", "<=", ">", ">="]


@pytest.fixture(params=[True, False], ids=["zone_maps", "no_zone_maps"])
def zone_maps(request):
    """``t`` is one zone-map block, so zone maps settle a literal below
    its minimum or above its maximum before the predicate runs; without
    them every case reaches the coded column."""
    return request.param


class TestComparisons:
    @pytest.mark.parametrize("literal", LITERALS)
    @pytest.mark.parametrize("op", OPS)
    def test_column_against_literal(self, op, literal, zone_maps):
        check(_db(), f"SELECT id FROM t WHERE s {op} '{literal}'",
              zone_maps=zone_maps)

    @pytest.mark.parametrize("literal", ["alpha", "charlie", "delta"])
    @pytest.mark.parametrize("op", OPS)
    def test_literal_on_the_left(self, op, literal, zone_maps):
        check(_db(), f"SELECT id FROM t WHERE '{literal}' {op} s",
              zone_maps=zone_maps)

    @pytest.mark.parametrize("op", OPS)
    def test_negated(self, op, zone_maps):
        check(_db(), f"SELECT id FROM t WHERE NOT (s {op} 'charlie')",
              zone_maps=zone_maps)

    def test_missing_literal(self, zone_maps):
        assert check(_db(), "SELECT id FROM t WHERE s = 'charlie'",
                     zone_maps=zone_maps) == ()
        rows = check(_db(), "SELECT id FROM t WHERE s <> 'charlie'",
                     zone_maps=zone_maps)
        assert len(rows) == len(WORDS)

    @pytest.mark.parametrize("op", OPS)
    def test_two_columns_with_different_dictionaries(self, op):
        # lk and rk share no dictionary: their codes are not comparable
        # until both are translated into one merged dictionary.
        check(_db(), "SELECT lv, lk, rk FROM l JOIN r ON lv = rv "
                     f"WHERE lk {op} rk")

    @pytest.mark.parametrize("op", ["=", "<"])
    def test_column_against_itself_shares_one_dictionary(self, op):
        check(_db(), f"SELECT id FROM t WHERE s {op} s")


class TestInList:
    @pytest.mark.parametrize("members", [
        "'delta', 'charlie', 'alpha'",   # two missing from the dictionary
        "'charlie', 'zulu'",              # every member missing
        "'bravo', 'hotel'",
    ])
    def test_in_and_not_in(self, members, zone_maps):
        check(_db(), f"SELECT id FROM t WHERE s IN ({members})",
              zone_maps=zone_maps)
        check(_db(), f"SELECT id FROM t WHERE NOT (s IN ({members}))",
              zone_maps=zone_maps)


class TestLike:
    @pytest.mark.parametrize("pattern", ["%o%", "d_lta", "%a", "b%",
                                         "%", "zz%"])
    def test_like_and_not_like(self, pattern):
        check(_db(), f"SELECT id FROM t WHERE s LIKE '{pattern}'")
        check(_db(), f"SELECT id FROM t WHERE NOT (s LIKE '{pattern}')")

    def test_fewer_rows_than_dictionary_values(self):
        # Zone maps keep the first 1024-row block of 3000 distinct
        # values, so the LIKE sees fewer rows than the dictionary holds
        # values, and their codes are scattered over the dictionary.
        db = Database(name="wide")
        db.create_table(Table.from_columns(
            "u", [("id", DataType.INT64), ("w", DataType.STRING)],
            {"id": np.arange(3000, dtype=np.int64),
             "w": [f"w{i * 7919 % 3000:04d}" for i in range(3000)]}))
        rows = check(db, "SELECT id, w FROM u WHERE id < 200 AND w LIKE 'w1%'")
        assert 0 < len(rows) < 200


class TestBetween:
    @pytest.mark.parametrize("low, high", [("charlie", "golf"),
                                           ("alpha", "bravo"),
                                           ("delta", "delta"),
                                           ("india", "zulu")])
    def test_between_and_not_between(self, low, high, zone_maps):
        check(_db(), f"SELECT id FROM t WHERE s BETWEEN '{low}' AND '{high}'",
              zone_maps=zone_maps)
        check(_db(), "SELECT id FROM t "
                     f"WHERE NOT (s BETWEEN '{low}' AND '{high}')",
              zone_maps=zone_maps)


class TestJoins:
    @pytest.mark.parametrize("op", ["hash", "merge", "loop", "radix"])
    def test_keys_with_different_dictionaries(self, op):
        # Raw codes would pair a (code 0 in l) with b (code 0 in r).
        rows = check(_db(), "SELECT lv, rv, lk FROM l JOIN r ON lk = rk "
                            f"/*+ JOIN_OP(r {op}) */")
        assert sorted(rows) == [(1, 4, "e"), (3, 2, "c"), (3, 5, "c"),
                                (4, 4, "e"), (5, 2, "c"), (5, 5, "c")]

    def test_distinct_after_a_join(self):
        check(_db(), "SELECT DISTINCT lk FROM l JOIN r ON lk = rk")
        check(_db(), "SELECT DISTINCT lk, rk FROM l JOIN r ON lv = rv")

    def test_group_by_after_a_join(self):
        check(_db(), "SELECT rk, COUNT(*) AS n, SUM(lv) AS total "
                     "FROM l JOIN r ON lv = rv GROUP BY rk ORDER BY rk")


class TestKeyOperators:
    def test_group_by(self):
        check(_db(), "SELECT s, COUNT(*) AS n, SUM(x) AS total "
                     "FROM t GROUP BY s")
        check(_db(), "SELECT s, g, COUNT(*) AS n FROM t GROUP BY s, g "
                     "ORDER BY s, g")

    def test_having_on_a_string_key(self):
        check(_db(), "SELECT s, COUNT(*) AS n FROM t GROUP BY s "
                     "HAVING s > 'charlie'")

    def test_order_by_desc_with_ties_under_limit(self):
        rows = check(_db(), "SELECT id, s FROM t ORDER BY s DESC, id LIMIT 4")
        assert rows == ((2, "hotel"), (7, "hotel"), (4, "foxtrot"),
                        (9, "foxtrot"))

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_desc_ties_keep_input_order(self, executor):
        engine = Engine(_db(), EngineConfig(executor=executor))
        rows = engine.execute(
            "SELECT id, s FROM t ORDER BY s DESC LIMIT 5").rows
        assert [row[0] for row in rows] == [2, 7, 4, 9, 0]

    def test_distinct(self):
        check(_db(), "SELECT DISTINCT s FROM t")
        check(_db(), "SELECT DISTINCT s, g FROM t ORDER BY s, g")

    def test_distinct_string_literal(self):
        # A projected literal is a raw object array, not a coded column.
        assert check(_db(), "SELECT DISTINCT 'k' AS k FROM t") == (("k",),)

    def test_index_scan(self):
        db = Database(name="indexed")
        words = ["common"] * 400 + ["rare"] * 3 + ["usual"] * 200
        db.create_table(Table.from_columns(
            "t", [("id", DataType.INT64), ("s", DataType.STRING)],
            {"id": np.arange(len(words), dtype=np.int64), "s": words}))
        for executor in EXECUTORS:
            engine = Engine(db, EngineConfig(executor=executor))
            engine.create_index("t", "s")
            sql = "SELECT id, s FROM t WHERE s = 'rare' ORDER BY id"
            assert "IndexScan" in engine.explain(sql)
            assert engine.execute(sql).rows == ((400, "rare"), (401, "rare"),
                                                (402, "rare"))


class TestEmptyTable:
    @pytest.mark.parametrize("sql", [
        "SELECT es FROM e WHERE es = 'a'",
        "SELECT es FROM e WHERE es < 'a'",
        "SELECT es FROM e WHERE es IN ('a', 'b')",
        "SELECT es FROM e WHERE es LIKE 'a%'",
        "SELECT es FROM e WHERE es BETWEEN 'a' AND 'b'",
        "SELECT es, COUNT(*) AS n FROM e GROUP BY es",
        "SELECT DISTINCT es FROM e",
        "SELECT eid, es FROM e ORDER BY es DESC",
        "SELECT eid, lv FROM e JOIN l ON es = lk",
    ])
    def test_empty_string_column(self, sql):
        assert check(_db(), sql) == ()


class TestCodedColumn:
    """The in-flight type itself."""

    def _column(self):
        values = np.array(["b", "d", "f"], dtype=object)
        return Dictionary(values=values,
                          codes=np.array([2, 0, 1, 0], dtype=np.int64))

    def test_gather_keeps_the_dictionary(self):
        column = self._column()
        for index in (np.array([3, 0]), slice(1, 3),
                      np.array([True, False, True, False])):
            part = column[index]
            assert isinstance(part, Dictionary)
            assert part.values is column.values
        assert column[0] == "f"

    def test_decodes_where_codes_are_not_understood(self):
        column = self._column()
        assert np.asarray(column).tolist() == ["f", "b", "d", "b"]
        assert column.tolist() == ["f", "b", "d", "b"]
        assert (column == "b").tolist() == [False, True, False, True]
        assert (column != "b").tolist() == [True, False, True, False]
        assert len(column) == 4 and column.dtype == object


def test_result_rows_are_plain_python():
    """Each result column is converted once: INT64 and DATE become int,
    FLOAT64 float (NULL as NaN) and STRING str."""
    db = Database(name="types")
    db.create_table(Table.from_columns(
        "t", [("i", DataType.INT64), ("x", DataType.FLOAT64),
              ("s", DataType.STRING), ("d", DataType.DATE)],
        {"i": [7, 8], "x": [np.nan, 2.5], "s": ["b", "a"],
         "d": ["1995-03-15", datetime.date(1996, 1, 2)]}))
    for executor in EXECUTORS:
        rows = Engine(db, EngineConfig(executor=executor)).execute(
            "SELECT i, x, s, d FROM t ORDER BY i").rows
        (i, x, s, d), second = rows
        assert [type(v) for v in (i, x, s, d)] == [int, float, str, int]
        assert i == 7 and np.isnan(x) and s == "b"
        assert days_to_date(d) == datetime.date(1995, 3, 15)
        assert [type(v) for v in second] == [int, float, str, int]


#: One statement of each kind the adhoc benchmark workload sends.
ADHOC = [
    "SELECT p_partkey, p_name, p_brand, p_type, p_size FROM part "
    "WHERE p_partkey = 7",
    "SELECT COUNT(*) AS n_lines, SUM(l_quantity) AS qty, "
    "SUM(l_extendedprice) AS price FROM lineitem "
    "WHERE l_orderkey >= 10 AND l_orderkey < 20",
    "SELECT s_name, s_acctbal, n_name FROM supplier "
    "JOIN nation ON s_nationkey = n_nationkey "
    "JOIN region ON n_regionkey = r_regionkey "
    "WHERE r_name = 'ASIA' AND s_acctbal > 100.0",
    "SELECT p_partkey, p_brand, s_name, ps_supplycost "
    "FROM part JOIN partsupp ON p_partkey = ps_partkey "
    "JOIN supplier ON ps_suppkey = s_suppkey "
    "WHERE p_brand = 'Brand#23' AND p_size = 15",
]


def test_no_operator_hands_dict_encode_decoded_strings(monkeypatch):
    """Every string key reaches ``dict_encode`` as codes: on the 22
    TPC-H queries and the adhoc statements, under every profile and
    both planners."""
    db = tpch.generate_tpch(sf=0.002, seed=42)
    encode = kernels.dict_encode
    decoded = []
    current = [None]

    def guarded(columns):
        for col in columns:
            if isinstance(col, np.ndarray) and col.dtype == object:
                decoded.append(current[0])
        return encode(columns)

    # Kernels call dict_encode through the module's globals, so this
    # also sees encode_join_keys and first_occurrence_order.
    monkeypatch.setattr(kernels, "dict_encode", guarded)
    statements = [tpch.tpch_query(q) for q in tpch.all_query_numbers()]
    for optimizer in EngineConfig.VALID_OPTIMIZERS:
        for executor in EXECUTORS:
            engine = Engine(db, EngineConfig(executor=executor,
                                             optimizer=optimizer))
            engine.create_index("part", "p_partkey")
            for sql in statements + ADHOC:
                current[0] = (optimizer, executor, sql[:60])
                engine.execute(sql)
    assert not decoded, f"decoded strings reached dict_encode: {decoded[:3]}"
