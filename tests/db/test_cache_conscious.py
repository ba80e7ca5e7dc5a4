"""Differential tests for cache-conscious execution (tentpole sweep).

Three oracles guard the new fast paths:

- **join operators**: the radix-partitioned hash join, like the plain
  hash, merge and nested-loop joins, must return exactly what SQLite
  returns for the same join — per executor, over seeded random data,
  including empty-partition and duplicate-heavy key distributions;
- **zone maps**: a scan with pruning on must return exactly what the
  same scan returns with ``zone_maps=False`` — including NULL-heavy
  columns (NaN never matches a predicate), all-pruned tables and
  dictionary-encoded equality probes;
- **statistics staleness**: recreating a table after ANALYZE leaves the
  optimizer's statistics stale but must never change results (zone
  maps and dictionaries live on the *table* and are rebuilt with it).

Pruned-vs-unpruned comparisons run one executor on both sides, so they
are exact (identical kernels, identical summation order).
"""

import numpy as np
import pytest

from repro.db import DataType, Database, Engine, EngineConfig, Table
from repro.db import kernels
from repro.hardware.cache import CacheModel
from tests.db.reference import check

JOIN_HINTS = ("hash", "merge", "loop", "radix")

JOIN_SQL = ("SELECT fk, lv, rv FROM l JOIN r ON fk = pk "
            "/*+ JOIN_OP(r {op}) */")


def _join_db(seed, n_left=3_000, n_right=400, clustered=False,
             null_values=False):
    """Seeded join pair; ``clustered`` keys leave radix partitions
    empty (all keys share their low bits), ``null_values`` salts the
    payload with NaN."""
    rng = np.random.default_rng(seed)
    if clustered:
        # Multiples of 64: with >= 6 radix bits most partitions are
        # empty and every key lands in partition 0 at exactly 6 bits.
        fk = rng.integers(0, max(1, n_right // 64), n_left) * 64
        pk = np.arange(n_right) * 64
    else:
        fk = rng.integers(0, n_right, n_left)
        pk = np.arange(n_right)
    lv = rng.random(n_left)
    rv = rng.random(n_right)
    if null_values:
        lv[rng.random(n_left) < 0.3] = np.nan
        rv[rng.random(n_right) < 0.3] = np.nan
    db = Database(name=f"cc_{seed}")
    db.create_table(Table.from_columns(
        "l", [("fk", DataType.INT64), ("lv", DataType.FLOAT64)],
        {"fk": fk, "lv": lv}))
    db.create_table(Table.from_columns(
        "r", [("pk", DataType.INT64), ("rv", DataType.FLOAT64)],
        {"pk": pk, "rv": rv}))
    return db


def _rows(db, sql, executor, **config):
    engine = Engine(db, EngineConfig(executor=executor, **config))
    return engine.execute(sql).rows


class TestJoinOperatorSweep:
    """Radix, hash, merge and loop joins: SQLite's rows, per executor."""

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_all_operators_agree(self, executor, seed):
        db = _join_db(seed)
        for op in JOIN_HINTS:
            check(db, JOIN_SQL.format(op=op), executors=(executor,))

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_empty_partitions(self, executor):
        """Clustered keys leave most radix partitions empty."""
        db = _join_db(5, clustered=True)
        for bits in (0, 3, 6, 9):
            check(db, JOIN_SQL.format(op="radix"), executors=(executor,),
                  radix_bits=bits)

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_nan_payloads_survive_partitioning(self, executor):
        db = _join_db(17, null_values=True)
        for op in ("hash", "radix"):
            check(db, JOIN_SQL.format(op=op), executors=(executor,),
                  radix_bits=4)

    def test_forced_bits_match_auto_bits(self):
        db = _join_db(7, n_left=20_000, n_right=4_000)
        auto = sorted(_rows(db, JOIN_SQL.format(op="radix"),
                            "vectorized",
                            cache_model=CacheModel.tutorial_laptop()))
        for bits in (1, 5, kernels.MAX_RADIX_BITS):
            forced = sorted(_rows(db, JOIN_SQL.format(op="radix"),
                                  "vectorized", radix_bits=bits))
            assert forced == auto


def _scan_db(seed, n=10_000, null_fraction=0.0):
    rng = np.random.default_rng(seed)
    v = rng.random(n) * 100.0
    if null_fraction:
        v[rng.random(n) < null_fraction] = np.nan
    db = Database(name=f"scan_{seed}")
    db.create_table(Table.from_columns(
        "ev",
        [("ts", DataType.INT64), ("cat", DataType.STRING),
         ("v", DataType.FLOAT64)],
        {"ts": np.arange(n),
         "cat": np.array(["alpha", "beta", "gamma", "delta"]
                         )[rng.integers(0, 4, n)],
         "v": v}))
    return db


SCAN_QUERIES = (
    "SELECT COUNT(*) AS c, SUM(v) AS s FROM ev WHERE ts < 2500",
    "SELECT COUNT(*) AS c FROM ev WHERE ts BETWEEN 3000 AND 3100",
    "SELECT COUNT(*) AS c FROM ev WHERE cat = 'beta' AND ts >= 9000",
    "SELECT COUNT(*) AS c FROM ev WHERE cat IN ('alpha', 'missing')",
    "SELECT COUNT(*) AS c FROM ev WHERE cat = 'nosuchvalue'",
    "SELECT COUNT(*) AS c, SUM(v) AS s FROM ev WHERE v > 50.0",
    "SELECT COUNT(*) AS c FROM ev WHERE ts < 0",          # all pruned
    "SELECT COUNT(*) AS c FROM ev WHERE ts >= 0",         # all true
)


class TestZoneMapPruningDifferential:
    """Pruned vs unpruned scans: identical results, per executor."""

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    @pytest.mark.parametrize("sql", SCAN_QUERIES)
    def test_pruned_equals_unpruned(self, executor, sql):
        db = _scan_db(23)
        pruned = _rows(db, sql, executor, zone_maps=True)
        unpruned = _rows(db, sql, executor, zone_maps=False)
        assert list(map(repr, pruned)) == list(map(repr, unpruned))

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    @pytest.mark.parametrize("sql", SCAN_QUERIES)
    def test_null_heavy_column(self, executor, sql):
        """60% NaN: PRUNE_ALL proofs must never swallow a NULL."""
        db = _scan_db(31, null_fraction=0.6)
        pruned = _rows(db, sql, executor, zone_maps=True)
        unpruned = _rows(db, sql, executor, zone_maps=False)
        assert list(map(repr, pruned)) == list(map(repr, unpruned))

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_all_pruned_table_is_empty_not_wrong(self, executor):
        db = _scan_db(9)
        rows = _rows(db, "SELECT ts, v FROM ev WHERE ts > 99999",
                     executor)
        assert list(rows) == []

    def test_stale_statistics_after_analyze(self):
        """ANALYZE, then drop/recreate with different data: the stale
        statistics may mislead the planner but never the results."""
        db = _scan_db(2)
        engine = Engine(db, EngineConfig(executor="vectorized",
                                         optimizer="cost"))
        engine.analyze()
        sql = "SELECT COUNT(*) AS c, SUM(v) AS s FROM ev WHERE ts < 500"
        before = engine.execute(sql).rows
        assert before
        # Replace the table: new rows, same schema, fresh zone maps.
        db.drop_table("ev")
        replacement = _scan_db(77, n=4_096)
        db.create_table(replacement.table("ev"))
        stale = engine.execute(sql).rows
        fresh_engine = Engine(db, EngineConfig(executor="vectorized",
                                               optimizer="cost"))
        fresh = fresh_engine.execute(sql).rows
        assert list(map(repr, stale)) == list(map(repr, fresh))


class TestFilterZoneShortCircuit:
    """Satellite fix: zone-map proofs skip predicate evaluation."""

    def _count_predicate_evaluations(self, monkeypatch, executor, sql):
        from repro.db import expressions
        calls = {"n": 0}
        original = kernels.compile_expr

        def counting(expr):
            # Project/Aggregate compile plain column refs too; only
            # the predicate itself is a comparison.
            if isinstance(expr, expressions.Comparison):
                calls["n"] += 1
            return original(expr)

        monkeypatch.setattr(kernels, "compile_expr", counting)
        rows = _rows(_scan_db(13), sql, executor)
        return calls["n"], rows

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_all_false_skips_evaluation(self, monkeypatch, executor):
        n_calls, rows = self._count_predicate_evaluations(
            monkeypatch, executor,
            "SELECT ts FROM ev WHERE ts < 0")
        assert list(rows) == []
        assert n_calls == 0, (
            "Filter re-evaluated a predicate zone maps already proved "
            "all-false")

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_all_true_skips_evaluation(self, monkeypatch, executor):
        n_calls, rows = self._count_predicate_evaluations(
            monkeypatch, executor,
            "SELECT COUNT(*) AS c FROM ev WHERE ts >= 0")
        assert list(rows) == [(10_000,)]
        assert n_calls == 0, (
            "Filter re-evaluated a predicate zone maps already proved "
            "all-true")

    @pytest.mark.parametrize("executor", ["loop", "vectorized"])
    def test_partial_blocks_still_evaluate(self, monkeypatch, executor):
        n_calls, __ = self._count_predicate_evaluations(
            monkeypatch, executor,
            "SELECT ts FROM ev WHERE ts < 1500")
        assert n_calls >= 1, (
            "a partially-matching scan must still run the predicate")

    def test_shortcircuit_disabled_without_zone_maps(self, monkeypatch):
        calls = {"n": 0}
        original = kernels.compile_expr

        def counting(expr):
            calls["n"] += 1
            return original(expr)

        monkeypatch.setattr(kernels, "compile_expr", counting)
        rows = _rows(_scan_db(13), "SELECT ts FROM ev WHERE ts < 0",
                     "vectorized", zone_maps=False)
        assert list(rows) == []
        assert calls["n"] >= 1
