"""Cross-backend differential tests: the CI `cross-backend` job.

Every seeded query runs on all three backends — MiniDB loop, MiniDB
vectorized, and SQLite (the reference) — and must produce identical
sorted result sets (floats to aggregation-rounding tolerance).  Forced
join orders are part of the grid: a plan-forcing bug that changes
*results* (not just speed) fails here, on every Python version in the
CI matrix.
"""

import numpy as np
import pytest

from repro.db import DataType, Database, Table, default_systems, results_match

SEED = 11
N_FACT = 500

ORDERS = (
    None,
    ("fact", "part", "cust"),
    ("fact", "cust", "part"),
    ("cust", "fact", "part"),
)

QUERIES = (
    ("group_sum",
     "SELECT region, SUM(amount) AS s FROM fact "
     "JOIN part ON pkey = pkey JOIN cust ON ckey = ckey "
     "WHERE region = 1 GROUP BY region ORDER BY region"),
    ("two_filters",
     "SELECT region, COUNT(*) AS n FROM fact "
     "JOIN part ON pkey = pkey JOIN cust ON ckey = ckey "
     "WHERE region < 3 AND cat = 2 GROUP BY region ORDER BY region"),
    ("arithmetic_division",
     "SELECT region, SUM(amount / 4) AS q FROM fact "
     "JOIN part ON pkey = pkey JOIN cust ON ckey = ckey "
     "WHERE cat < 2 GROUP BY region ORDER BY region"),
    ("having_filter",
     "SELECT cat, COUNT(*) AS n FROM fact "
     "JOIN part ON pkey = pkey JOIN cust ON ckey = ckey "
     "WHERE region < 2 GROUP BY cat HAVING n > 3 ORDER BY cat"),
    ("min_max",
     "SELECT region, MIN(amount) AS lo, MAX(amount) AS hi FROM fact "
     "JOIN part ON pkey = pkey JOIN cust ON ckey = ckey "
     "WHERE amount < 80.0 GROUP BY region ORDER BY region"),
)


def differential_database(seed: int = SEED, n_fact: int = N_FACT) -> Database:
    rng = np.random.default_rng(seed)
    n_cust, n_part = 40, 15
    db = Database(name=f"differential_{seed}")
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


@pytest.fixture(scope="module")
def systems():
    db = differential_database()
    loaded = default_systems()
    for system in loaded:
        system.connect()
        system.load(db)
    return loaded


@pytest.mark.parametrize("name,sql", QUERIES, ids=[q[0] for q in QUERIES])
@pytest.mark.parametrize("order", ORDERS,
                         ids=["unforced"] + ["-".join(o) for o in ORDERS[1:]])
def test_identical_result_sets(systems, name, sql, order):
    *contenders, oracle = systems
    reference_sql = sql if order is None else oracle.force_plan(sql, order)
    reference = oracle.execute(reference_sql)
    assert reference.n_rows > 0, f"{name} returned nothing; weak test"
    for system in contenders:
        run_sql = sql if order is None else system.force_plan(sql, order)
        result = system.execute(run_sql)
        assert results_match(reference, result), (
            f"{system.name} diverges from {oracle.name} on {name} "
            f"(order={order}):\n{reference.sorted_rows()[:5]}\nvs\n"
            f"{result.sorted_rows()[:5]}")


def test_seeded_rebuild_is_deterministic():
    db_a, db_b = differential_database(), differential_database()
    loop_a, loop_b = default_systems()[0], default_systems()[0]
    loop_a.load(db_a)
    loop_b.load(db_b)
    sql = QUERIES[0][1]
    assert loop_a.execute(sql).sorted_rows() \
        == loop_b.execute(sql).sorted_rows()
