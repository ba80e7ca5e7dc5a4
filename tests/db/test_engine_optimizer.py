"""Engine-level tests: planning, tuning, EXPLAIN/TRACE/PROFILE, client."""

import pytest

from repro.db import (
    Client,
    Database,
    DataType,
    Engine,
    EngineConfig,
    FileSink,
    PlannerOptions,
    SeqScan,
    Table,
    TerminalSink,
    parse_select,
    plan_statement,
)
from repro.errors import CatalogError, DatabaseError, PlanError
from repro.hardware import BuildMode, BuildModel


def sample_db(n=200, n_cust=20):
    db = Database()
    db.create_table(Table.from_columns(
        "orders",
        [("okey", DataType.INT64), ("ckey", DataType.INT64),
         ("price", DataType.FLOAT64)],
        {"okey": list(range(1, n + 1)),
         "ckey": [i % n_cust + 1 for i in range(n)],
         "price": [float(i) for i in range(n)]}))
    db.create_table(Table.from_columns(
        "cust",
        [("cid", DataType.INT64), ("segment", DataType.STRING)],
        {"cid": list(range(1, n_cust + 1)),
         "segment": ["S" + str(i % 3) for i in range(n_cust)]}))
    return db


class TestPlanning:
    def test_pushdown_places_filter_below_join(self):
        db = sample_db()
        stmt = parse_select(
            "SELECT okey FROM orders JOIN cust ON ckey = cid "
            "WHERE price > 100 AND segment = 'S1'")
        plan = plan_statement(stmt, db, PlannerOptions())
        text = repr_tree(plan)
        # With pushdown each filter sits directly on its table's scan.
        join_idx = text.index("HashJoin")
        assert text.index("Filter((price > 100))") > join_idx
        assert text.index("Filter((segment = 'S1'))") > join_idx

    def test_untuned_filters_after_join(self):
        db = sample_db()
        stmt = parse_select(
            "SELECT okey FROM orders JOIN cust ON ckey = cid "
            "WHERE price > 100 AND segment = 'S1'")
        plan = plan_statement(stmt, db, PlannerOptions.untuned())
        # Untuned: the residual filter sits ABOVE the (still hash) join.
        names = [node.name() for node in plan.walk()]
        filter_idx = next(i for i, n in enumerate(names)
                          if n.startswith("Filter"))
        join_idx = next(i for i, n in enumerate(names)
                        if n.startswith("HashJoin"))
        assert filter_idx < join_idx  # pre-order: filter is an ancestor

    def test_naive_options_use_nested_loops(self):
        db = sample_db()
        stmt = parse_select(
            "SELECT okey FROM orders JOIN cust ON ckey = cid")
        plan = plan_statement(stmt, db, PlannerOptions.naive())
        kinds = [type(node).__name__ for node in plan.walk()]
        assert "NestedLoopJoin" in kinds
        assert "HashJoin" not in kinds

    def test_column_pruning_on_scans(self):
        db = sample_db()
        stmt = parse_select("SELECT okey FROM orders WHERE price > 10")
        plan = plan_statement(stmt, db, PlannerOptions())
        scans = [n for n in plan.walk() if isinstance(n, SeqScan)]
        assert scans[0].columns == ("okey", "price")

    def test_untuned_scans_whole_rows(self):
        db = sample_db()
        stmt = parse_select("SELECT okey FROM orders WHERE price > 10")
        plan = plan_statement(stmt, db, PlannerOptions.untuned())
        scans = [n for n in plan.walk() if isinstance(n, SeqScan)]
        assert scans[0].columns is None

    def test_unknown_table_rejected(self):
        with pytest.raises(CatalogError):
            plan_statement(parse_select("SELECT a FROM ghost"), sample_db())

    def test_unknown_column_rejected(self):
        with pytest.raises(CatalogError):
            plan_statement(parse_select("SELECT ghost FROM orders"),
                           sample_db())

    def test_self_join_rejected(self):
        stmt = parse_select(
            "SELECT okey FROM orders JOIN orders ON okey = okey")
        with pytest.raises(PlanError):
            plan_statement(stmt, sample_db())

    def test_disconnected_join_rejected(self):
        db = sample_db()
        db.create_table(Table.from_columns(
            "island", [("x", DataType.INT64)], {"x": [1]}))
        stmt = parse_select(
            "SELECT okey FROM orders JOIN island ON cid = x")
        with pytest.raises(PlanError):
            plan_statement(stmt, db)

    def test_non_grouped_output_rejected(self):
        stmt = parse_select(
            "SELECT price, COUNT(*) AS n FROM orders GROUP BY ckey")
        with pytest.raises(PlanError):
            plan_statement(stmt, sample_db())

    def test_order_by_must_be_in_output(self):
        stmt = parse_select(
            "SELECT ckey, COUNT(*) AS n FROM orders GROUP BY ckey "
            "ORDER BY price")
        with pytest.raises(PlanError):
            plan_statement(stmt, sample_db())


def repr_tree(plan):
    return "\n".join(node.name() for node in plan.walk())


class TestEngineExecution:
    def test_scalar_aggregate(self):
        engine = Engine(sample_db())
        result = engine.execute("SELECT COUNT(*) AS n FROM orders")
        assert result.scalar() == 200

    def test_group_join_query(self):
        engine = Engine(sample_db())
        result = engine.execute(
            "SELECT segment, SUM(price) AS total FROM orders "
            "JOIN cust ON ckey = cid GROUP BY segment ORDER BY segment")
        assert result.columns == ("segment", "total")
        assert result.n_rows == 3
        totals = dict(result.rows)
        assert sum(totals.values()) == pytest.approx(sum(range(200)))

    def test_tuned_faster_than_untuned(self):
        """The slide-42 factor: tuned config beats out-of-the-box.

        Measured hot (second run); the penalty comes from the naive join
        choice plus missing pushdown rather than first-touch disk I/O.
        """
        sql = ("SELECT segment, SUM(price) AS total FROM orders "
               "JOIN cust ON ckey = cid WHERE price > 10 GROUP BY segment")
        db_big = sample_db(n=5000, n_cust=200)
        tuned = Engine(db_big, EngineConfig())
        untuned = Engine(db_big, EngineConfig.untuned(naive_joins=True,
                                                      buffer_pages=4096))

        def hot_time(engine):
            engine.execute(sql)  # warm the buffer pool
            return engine.execute(sql).server_time.real

        r_tuned = tuned.execute(sql)
        r_untuned = untuned.execute(sql)
        assert sorted(r_tuned.rows) == sorted(r_untuned.rows)
        ratio = hot_time(untuned) / hot_time(tuned)
        assert ratio > 2.0

    def test_dbg_build_slower_than_opt(self):
        sql = "SELECT SUM(price * 2) AS s FROM orders WHERE price > 10"
        opt = Engine(sample_db(), EngineConfig())
        dbg = Engine(sample_db(), EngineConfig(
            build=BuildModel(BuildMode.DBG)))
        t_opt = opt.execute(sql).server_time
        t_dbg = dbg.execute(sql).server_time
        assert t_opt.user < t_dbg.user <= 2.5 * t_opt.user

    def test_hot_second_run_cheaper(self):
        engine = Engine(sample_db())
        first = engine.execute("SELECT COUNT(*) AS n FROM orders")
        second = engine.execute("SELECT COUNT(*) AS n FROM orders")
        assert second.server_time.system == 0.0
        assert first.server_time.system > 0.0

    def test_make_cold_restores_io(self):
        engine = Engine(sample_db())
        engine.execute("SELECT COUNT(*) AS n FROM orders")
        engine.make_cold()
        again = engine.execute("SELECT COUNT(*) AS n FROM orders")
        assert again.server_time.system > 0.0

    def test_statistics(self):
        engine = Engine(sample_db())
        engine.execute("SELECT COUNT(*) AS n FROM orders")
        stats = engine.statistics()
        assert stats["io_pages_read"] >= 1
        assert stats["simulated_real_s"] > 0

    def test_result_column_accessor(self):
        engine = Engine(sample_db())
        result = engine.execute("SELECT okey FROM orders LIMIT 3")
        assert result.column("okey") == [1, 2, 3]
        with pytest.raises(DatabaseError):
            result.column("nope")

    def test_scalar_rejects_multirow(self):
        engine = Engine(sample_db())
        result = engine.execute("SELECT okey FROM orders LIMIT 3")
        with pytest.raises(DatabaseError):
            result.scalar()


class TestIntrospection:
    def test_explain_lists_operators(self):
        engine = Engine(sample_db())
        text = engine.explain(
            "SELECT segment, COUNT(*) AS n FROM orders "
            "JOIN cust ON ckey = cid GROUP BY segment")
        assert "SeqScan(orders" in text
        assert "HashJoin" in text
        assert "Aggregate" in text
        assert "est_rows" in text

    def test_profile_phases(self):
        engine = Engine(sample_db())
        __, report = engine.profile("SELECT COUNT(*) AS n FROM orders")
        assert report.phase_ms["parse"] > 0
        assert report.phase_ms["optimize"] > 0
        assert report.phase_ms["execute"] > 0
        assert report.total_ms == pytest.approx(
            sum(report.phase_ms.values()))

    def test_profile_operator_times_sum_to_execute(self):
        engine = Engine(sample_db())
        __, report = engine.profile(
            "SELECT segment, SUM(price) AS t FROM orders "
            "JOIN cust ON ckey = cid GROUP BY segment")
        total_self = sum(op.self_ms for op in report.operators)
        assert total_self == pytest.approx(report.execute_ms, rel=1e-6)

    def test_trace_output(self):
        engine = Engine(sample_db())
        text = engine.trace("SELECT COUNT(*) AS n FROM orders")
        assert "TRACE" in text
        assert "SeqScan" in text
        assert "rows=" in text

    def test_profile_format(self):
        engine = Engine(sample_db())
        __, report = engine.profile("SELECT COUNT(*) AS n FROM orders")
        text = report.format()
        assert "Parse" in text and "Execute" in text and "msec" in text


class TestClient:
    def test_terminal_slower_than_file(self):
        """Slide 23-26: the output sink changes client real time."""
        sql = "SELECT okey, price FROM orders"
        file_engine = Engine(sample_db())
        term_engine = Engine(sample_db())
        file_run = Client(file_engine, FileSink()).run(sql)
        term_run = Client(term_engine, TerminalSink()).run(sql)
        assert term_run.client_real_ms > file_run.client_real_ms
        assert file_run.result_bytes == term_run.result_bytes

    def test_gap_grows_with_result_size(self):
        small_sql = "SELECT okey FROM orders LIMIT 1"
        big_sql = "SELECT okey, price FROM orders"

        def gap(sql):
            f = Client(Engine(sample_db()), FileSink()).run(sql)
            t = Client(Engine(sample_db()), TerminalSink()).run(sql)
            return t.client_real_ms - f.client_real_ms

        assert gap(big_sql) > gap(small_sql)

    def test_client_real_includes_server(self):
        run = Client(Engine(sample_db()), FileSink()).run(
            "SELECT COUNT(*) AS n FROM orders")
        assert run.client_real_ms >= run.server_real_ms

    def test_measurement_format(self):
        run = Client(Engine(sample_db()), FileSink()).run(
            "SELECT COUNT(*) AS n FROM orders")
        text = run.format()
        assert "file" in text and "KB" in text
