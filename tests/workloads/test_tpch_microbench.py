"""Tests for the TPC-H-like generator/workload and micro-benchmarks."""

import numpy as np
import pytest

from repro.db import Engine
from repro.errors import WorkloadError
from repro.measurement import LAST_OF_THREE_HOT, run_harness
from repro.core import Factor, FactorSpace, FullFactorialDesign
from repro.workloads import (
    EngineQueryWorkload,
    Query,
    QuerySet,
    TPCH_QUERIES,
    TpchSizes,
    aggregate_microbenchmark,
    all_query_numbers,
    generate_tpch,
    join_microbenchmark,
    select_microbenchmark,
    sort_microbenchmark,
    tpch_query,
)

SF = 0.001


@pytest.fixture(scope="module")
def tpch_db():
    return generate_tpch(sf=SF, seed=42)


class TestTpchGenerator:
    def test_sizes_scale(self):
        small = TpchSizes.for_scale(0.001)
        big = TpchSizes.for_scale(0.1)
        assert big.orders > small.orders
        assert big.orders == 150_000

    def test_rejects_nonpositive_sf(self):
        with pytest.raises(WorkloadError):
            TpchSizes.for_scale(0)

    def test_all_tables_exist(self, tpch_db):
        expected = {"region", "nation", "supplier", "customer", "part",
                    "partsupp", "orders", "lineitem"}
        assert set(tpch_db.table_names) == expected

    def test_fixed_tables(self, tpch_db):
        assert tpch_db.table("region").n_rows == 5
        assert tpch_db.table("nation").n_rows == 25

    def test_lineitem_order_ratio(self, tpch_db):
        orders = tpch_db.table("orders").n_rows
        lineitems = tpch_db.table("lineitem").n_rows
        assert 1.0 <= lineitems / orders <= 7.0

    def test_deterministic(self):
        a = generate_tpch(sf=SF, seed=42)
        b = generate_tpch(sf=SF, seed=42)
        assert np.array_equal(a.table("lineitem").column("l_quantity").data,
                              b.table("lineitem").column("l_quantity").data)

    def test_foreign_keys_resolve(self, tpch_db):
        custkeys = set(
            tpch_db.table("customer").column("c_custkey").data.tolist())
        o_cust = tpch_db.table("orders").column("o_custkey").data
        assert set(o_cust.tolist()) <= custkeys

    def test_dates_consistent(self, tpch_db):
        li = tpch_db.table("lineitem")
        ship = li.column("l_shipdate").data
        receipt = li.column("l_receiptdate").data
        assert np.all(receipt > ship)

    def test_discount_range(self, tpch_db):
        disc = tpch_db.table("lineitem").column("l_discount").data
        assert disc.min() >= 0.0 and disc.max() <= 0.11


class TestTpchQueries:
    def test_query_lookup(self):
        assert "lineitem" in tpch_query(1)
        with pytest.raises(WorkloadError):
            tpch_query(23)

    def test_all_22_defined(self):
        assert all_query_numbers() == tuple(range(1, 23))

    def test_every_query_executes(self, tpch_db):
        engine = Engine(tpch_db)
        for number in all_query_numbers():
            result = engine.execute(TPCH_QUERIES[number])
            assert result.n_rows >= 0  # executed without raising

    def test_q1_aggregates_match_numpy_oracle(self, tpch_db):
        from repro.db.types import date_to_days
        engine = Engine(tpch_db)
        result = engine.execute(tpch_query(1))
        li = tpch_db.table("lineitem")
        mask = li.column("l_shipdate").data <= date_to_days("1998-09-02")
        flags = li.column("l_returnflag").data[mask]
        status = li.column("l_linestatus").data[mask]
        qty = li.column("l_quantity").data[mask]
        idx = {c: i for i, c in enumerate(result.columns)}
        for row in result.rows:
            group = (flags == row[idx["l_returnflag"]]) & \
                (status == row[idx["l_linestatus"]])
            assert row[idx["sum_qty"]] == pytest.approx(qty[group].sum())
            assert row[idx["count_order"]] == int(group.sum())

    def test_q6_matches_numpy_oracle(self, tpch_db):
        from repro.db.types import date_to_days
        engine = Engine(tpch_db)
        revenue = engine.execute(tpch_query(6)).scalar()
        li = tpch_db.table("lineitem")
        ship = li.column("l_shipdate").data
        disc = li.column("l_discount").data
        qty = li.column("l_quantity").data
        price = li.column("l_extendedprice").data
        mask = ((ship >= date_to_days("1994-01-01"))
                & (ship < date_to_days("1995-01-01"))
                & (disc >= 0.05) & (disc <= 0.07) & (qty < 24))
        assert revenue == pytest.approx((price[mask] * disc[mask]).sum())

    def test_q13_matches_python_oracle(self, tpch_db):
        engine = Engine(tpch_db)
        result = engine.execute(tpch_query(13))
        counts = {}
        for ck in tpch_db.table("orders").column("o_custkey").data.tolist():
            counts[ck] = counts.get(ck, 0) + 1
        top = result.rows[0]
        assert top[1] == max(counts.values())


class TestQueryAbstractions:
    def test_query_validation(self):
        with pytest.raises(WorkloadError):
            Query("", "SELECT 1")
        with pytest.raises(WorkloadError):
            Query("q", "  ")

    def test_query_set(self):
        qs = QuerySet("w", [Query("q1", "SELECT a FROM t")])
        assert len(qs) == 1
        assert qs["q1"].sql.startswith("SELECT")
        with pytest.raises(WorkloadError):
            qs["missing"]
        with pytest.raises(WorkloadError):
            QuerySet("w", [])
        with pytest.raises(WorkloadError):
            QuerySet("w", [Query("a", "x"), Query("a", "y")])

    def test_engine_workload_with_harness(self, tpch_db):
        engine = Engine(tpch_db)
        workload = EngineQueryWorkload(engine, tpch_query(6))
        space = FactorSpace([Factor("sql", (tpch_query(6), tpch_query(1)))])
        report = run_harness(FullFactorialDesign(space), workload,
                             LAST_OF_THREE_HOT, clock=engine.clock)
        assert len(report.results) == 2
        assert workload.last_result is not None

    def test_engine_workload_supports_cold(self, tpch_db):
        engine = Engine(tpch_db)
        workload = EngineQueryWorkload(engine, tpch_query(6))
        assert workload.supports_cold
        workload.run()
        workload.make_cold()
        assert engine.buffer_pool.hit_rate() >= 0


class TestMicrobenchmarks:
    def test_select_selectivity_controls_output(self):
        low = select_microbenchmark(5000, 0.1, seed=3)
        high = select_microbenchmark(5000, 0.9, seed=3)
        n_low = low.run().n_rows
        n_high = high.run().n_rows
        assert n_low == pytest.approx(500, rel=0.2)
        assert n_high == pytest.approx(4500, rel=0.2)

    def test_aggregate_group_count(self):
        bench = aggregate_microbenchmark(2000, 16, seed=3)
        assert bench.run().n_rows == 16

    def test_join_match_fraction(self):
        full = join_microbenchmark(1000, 100, match_fraction=1.0, seed=3)
        result = full.run()
        assert result.scalar() != 0
        none = join_microbenchmark(1000, 100, match_fraction=0.0, seed=3)
        # SUM over an empty join is NULL (NaN), as in SQL.
        assert np.isnan(none.run().scalar())

    def test_sort_runs(self):
        bench = sort_microbenchmark(500, seed=3)
        result = bench.run()
        values = result.column("k")
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            select_microbenchmark(0, 0.5)
        with pytest.raises(WorkloadError):
            aggregate_microbenchmark(10, 0)
        with pytest.raises(WorkloadError):
            join_microbenchmark(10, 10, match_fraction=2.0)
