"""Unit tests for the profiler module's edges."""

import pytest

from repro.db import (
    Database,
    DataType,
    Engine,
    NodeActuals,
    ProfileReport,
    SeqScan,
    Table,
)
from repro.errors import DatabaseError


def make_engine():
    db = Database()
    db.create_table(Table.from_columns(
        "t", [("a", DataType.INT64)], {"a": [1, 2, 3]}))
    return Engine(db)


def node(operator, self_ms, rows):
    """A one-operator record, as an executed plan would report it."""
    return NodeActuals(operator=operator, kind="SeqScan", est_rows=rows,
                       actual_rows=rows, batches=1, self_ms=self_ms,
                       total_ms=self_ms, buffer_hits=0, buffer_misses=0)


class TestProfileReport:
    def make_report(self):
        return ProfileReport(
            sql="SELECT a FROM t",
            phase_ms={"parse": 1.0, "optimize": 2.0, "execute": 7.0},
            operators=(node("SeqScan(t)", 5.0, 3),
                       node("Project(a)", 2.0, 3)))

    def test_totals(self):
        report = self.make_report()
        assert report.total_ms == pytest.approx(10.0)
        assert report.execute_ms == pytest.approx(7.0)

    def test_phase_share(self):
        report = self.make_report()
        assert report.phase_share("execute") == pytest.approx(0.7)
        assert report.phase_share("print") == 0.0

    def test_unknown_phase_rejected(self):
        with pytest.raises(DatabaseError):
            ProfileReport(sql="q", phase_ms={"compile": 1.0},
                          operators=())
        with pytest.raises(DatabaseError):
            self.make_report().phase_share("compile")

    def test_dominant_operator(self):
        report = self.make_report()
        assert report.dominant_operator().operator == "SeqScan(t)"

    def test_dominant_operator_empty_rejected(self):
        report = ProfileReport(sql="q", phase_ms={"parse": 1.0},
                               operators=())
        with pytest.raises(DatabaseError):
            report.dominant_operator()

    def test_zero_total_share(self):
        report = ProfileReport(sql="q", phase_ms={"parse": 0.0},
                               operators=())
        assert report.phase_share("parse") == 0.0

    def test_operator_format_shows_share(self):
        scan = node("SeqScan(t)", 5.0, 3)
        report = ProfileReport(sql="q", phase_ms={"execute": 10.0},
                               operators=(scan,))
        text = report.operator_line(scan)
        assert "50.0%" in text and "rows=3" in text
        idle = ProfileReport(sql="q", phase_ms={"execute": 0.0},
                             operators=(scan,))
        assert "0.0%" in idle.operator_line(scan)

    def test_operator_shares_use_execute_phase_denominator(self):
        # The operator table must normalise against the execute phase
        # only: parse/optimize/print time is not operator time.
        report = self.make_report()
        text = report.format()
        seq_scan = next(line for line in text.splitlines()
                        if "SeqScan" in line)
        assert "71.4%" in seq_scan  # 5.0 / 7.0, not 5.0 / 10.0
        assert "50.0%" not in seq_scan

    def test_to_dict(self):
        report = self.make_report()
        payload = report.to_dict()
        assert payload["sql"] == report.sql
        assert payload["total_ms"] == pytest.approx(10.0)
        assert payload["execute_ms"] == pytest.approx(7.0)
        assert payload["phase_ms"] == {"parse": 1.0, "optimize": 2.0,
                                       "execute": 7.0}
        ops = payload["operators"]
        assert [op["operator"] for op in ops] == ["SeqScan(t)",
                                                  "Project(a)"]
        assert ops[0]["share_of_execute"] == pytest.approx(5.0 / 7.0)
        assert ops[1]["rows"] == 3

    def test_to_dict_zero_execute_shares(self):
        report = ProfileReport(
            sql="q", phase_ms={"parse": 1.0},
            operators=(node("SeqScan(t)", 0.0, 0),))
        ops = report.to_dict()["operators"]
        assert ops[0]["share_of_execute"] == 0.0


class TestProfiledOperators:
    def test_unexecuted_plan_rejected(self):
        with pytest.raises(DatabaseError, match="never executed"):
            NodeActuals.from_node(SeqScan("t"))

    def test_executed_plan_collected(self):
        engine = make_engine()
        __, report = engine.profile("SELECT a FROM t")
        # The report's operators are the plan's actuals, pre-order.
        assert report.operators == tuple(engine.last_actuals().walk())
        assert any("SeqScan" in op.operator for op in report.operators)
        assert all(op.actual_rows >= 0 for op in report.operators)
