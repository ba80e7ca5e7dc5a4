"""Pins of every simulated charge MiniDB's operators issue, per profile.

The experiment pins (E05, E21-E28) digest whole runs, so a charge that
moves shows there only as a changed total.  These pins name it.  Under
each cost profile the same queries reach every operator kind: a scan
with zone-map pruning and an index scan; Filter, Project, Sort and
Limit; hash, radix, merge and nested-loop joins; Aggregate and
Distinct.  The test then checks four things:

- the category and exact value (``repr``) of every ``charge_cpu`` call,
  digested per operator kind, so a failure names the operator;
- the ``kernel`` attribute of every operator span under a tracer;
- the EXPLAIN text, digested per profile;
- each result's peak working set (``QueryResult.peak_memory_bytes``)
  and its rows, digested per profile.

The planner's join prices (:func:`repro.db.physops.join_operator_cost`)
are pinned value by value, with and without a cache hierarchy.
"""

import hashlib
from collections import defaultdict

import numpy as np
import pytest

from repro.db import DataType, Database, Engine, EngineConfig, Table
from repro.db.context import ExecutionContext
from repro.db.costmodel import DEFAULT_COST_MODEL
from repro.db.physops import JOIN_OPERATORS, JoinStep, join_operator_cost
from repro.db.plan import PlanNode
from repro.hardware.cache import CacheModel
from repro.obs import Tracer

PROFILES = ("loop", "tuple", "vectorized", "vectorized-eager")

#: Engine settings each query runs under: no cache model; a 4 KB L2,
#: so the auto-sized radix join partitions its 300-row build side; and
#: the tutorial laptop's caches with forced radix bits.
CONFIGS = {
    "plain": {},
    "small-cache": {"cache_model": CacheModel(l1_kb=1, l2_kb=4)},
    "forced-bits": {"cache_model": CacheModel.tutorial_laptop(),
                    "radix_bits": 3},
}

QUERIES = {
    "zone-scan": ("SELECT id, v * 2 AS w FROM fact "
                  "WHERE id < 1500 AND v > 20 ORDER BY w DESC LIMIT 10"),
    "index-scan": "SELECT v FROM fact WHERE k = 42",
    "filter": "SELECT id, tag FROM fact WHERE v < 30 AND tag = 'red'",
    "hash": ("SELECT fk, grp FROM fact JOIN dim ON fk = pk "
             "WHERE v < 50 /*+ JOIN_OP(dim hash) */"),
    "radix": ("SELECT fk, grp FROM fact JOIN dim ON fk = pk "
              "WHERE v < 50 /*+ JOIN_OP(dim radix) */"),
    "merge": ("SELECT fk, grp FROM fact JOIN dim ON fk = pk "
              "/*+ JOIN_OP(dim merge) */"),
    "loop": ("SELECT fk, grp FROM fact JOIN dim ON fk = pk "
             "WHERE id < 900 /*+ JOIN_OP(dim loop) */"),
    "aggregate": ("SELECT grp, SUM(v) AS s, COUNT(*) AS c "
                  "FROM fact JOIN dim ON fk = pk WHERE v > 10 "
                  "GROUP BY grp ORDER BY grp"),
    "distinct": "SELECT DISTINCT tag FROM fact WHERE v > 90",
}

#: The ``kernel`` attribute of each operator kind's span under the
#: vectorized profiles; the loop profiles record none.
KERNEL_LABELS = {
    "Filter": "filter.vector",
    "Project": "project.vector",
    "HashJoin": "join.vector",
    "RadixHashJoin": "join.radix",
    "MergeJoin": "merge.vector",
    "Aggregate": "aggregate.vector",
    "Distinct": "distinct.vector",
}

#: sha256[:16] of every charge an operator kind issued (``engine``:
#: parse and optimize), over all configs and queries in order.
CHARGES = {
    "loop": {
        "Aggregate": "3389079e37ac16a2",
        "Distinct": "d8bc13fcfdaed308",
        "Filter": "b38b0a8cb9ad6a12",
        "HashJoin": "96b8829a05894b88",
        "IndexScan": "1cf78bc8e82372f9",
        "MergeJoin": "5f80c3d72b6d3309",
        "NestedLoopJoin": "8c5a437ba7c19530",
        "Project": "4043b3a4e34dc26c",
        "RadixHashJoin": "a2ecd165f84d54a8",
        "SeqScan": "4ec0e374cf906296",
        "Sort": "da5ecdb77916d9bf",
        "engine": "d1d337b12df80c9d",
    },
    "tuple": {
        "Aggregate": "6bd8ee3bb4293fb8",
        "Distinct": "0d40f3cb8d38b37d",
        "Filter": "215c9bff49cd1a51",
        "HashJoin": "2a5a2594ecf9575e",
        "IndexScan": "7a14a43ce7e1f1e7",
        "MergeJoin": "df6e1301dcc8ee7b",
        "NestedLoopJoin": "9232b89a23b96dc9",
        "Project": "b4e5b40048492f0c",
        "RadixHashJoin": "b92bbb96f1f1808d",
        "SeqScan": "7f9abe80501dcdc9",
        "Sort": "68e15986577f14d9",
        "engine": "d1d337b12df80c9d",
    },
    "vectorized": {
        "Aggregate": "0a0102262457266b",
        "Distinct": "fc546b6648ee90c9",
        "Filter": "5cfd399a53f6d79c",
        "HashJoin": "2ad51b381bad01f0",
        "IndexScan": "1cf78bc8e82372f9",
        "MergeJoin": "b09e90d489b2eaec",
        "NestedLoopJoin": "8c5a437ba7c19530",
        "Project": "74d1e88bb8334414",
        "RadixHashJoin": "759e65145579ca72",
        "SeqScan": "4ec0e374cf906296",
        "Sort": "da5ecdb77916d9bf",
        "engine": "d1d337b12df80c9d",
    },
    "vectorized-eager": {
        "Aggregate": "0a0102262457266b",
        "Distinct": "fc546b6648ee90c9",
        "Filter": "481a500cb530af30",
        "HashJoin": "ac029cf88a0020a5",
        "IndexScan": "1cf78bc8e82372f9",
        "MergeJoin": "b09e90d489b2eaec",
        "NestedLoopJoin": "8c5a437ba7c19530",
        "Project": "fb19953ff65f8626",
        "RadixHashJoin": "ccacfe9f75e065e9",
        "SeqScan": "4ec0e374cf906296",
        "Sort": "da5ecdb77916d9bf",
        "engine": "d1d337b12df80c9d",
    },
}

#: sha256[:16] of the EXPLAIN and EXPLAIN ANALYZE texts, per profile.
EXPLAIN = {
    "loop": "f550d1a3939ae605",
    "tuple": "a0c8114c348f4734",
    "vectorized": "d819dffbf988ae28",
    "vectorized-eager": "0fdc49f2c28c7ad7",
}

#: sha256[:16] of every result's ``peak_memory_bytes``, and of every
#: result's columns and rows, per profile.
PEAK_MEMORY = {
    "loop": "ffed22c2e625e549",
    "tuple": "ffed22c2e625e549",
    "vectorized": "b0669ca4fe6b76f6",
    "vectorized-eager": "ffed22c2e625e549",
}
ROWS = {
    "loop": "75f882fe8ee2a1d2",
    "tuple": "75f882fe8ee2a1d2",
    "vectorized": "75f882fe8ee2a1d2",
    "vectorized-eager": "75f882fe8ee2a1d2",
}

#: (rows_left, rows_right, rows_out) of the planner pins.  Their build
#: sides fit the 2 MB L2, outgrow it, and outgrow it 60 times over; under
#: the 4 KB cache the last two need a second partitioning pass.
STEPS = ((5_000.0, 300.0, 5_000.0), (200_000.0, 60_000.0, 200_000.0),
         (3_000_000.0, 2_500_000.0, 3_000_000.0))

#: ``repr`` of join_operator_cost per (cache, step, operator).
JOIN_COSTS = {
    ("laptop", 300, "hash"): "1302100.0",
    ("laptop", 300, "loop"): "30001000.0",
    ("laptop", 300, "merge"): "5324576.60039168",
    ("laptop", 300, "radix"): "1302100.0",
    ("laptop", 60000, "hash"): "69430525.0",
    ("laptop", 60000, "loop"): "240000001000.0",
    ("laptop", 60000, "merge"): "367149087.0162879",
    ("laptop", 60000, "radix"): "71025000.0",
    ("laptop", 2500000, "hash"): "1873759126.0",
    ("laptop", 2500000, "loop"): "150000000001000.0",
    ("laptop", 2500000, "merge"): "9584672789.653187",
    ("laptop", 2500000, "radix"): "1348536000.0",
    ("none", 300, "hash"): "1291500.0",
    ("none", 300, "loop"): "30001000.0",
    ("none", 300, "merge"): "5324576.60039168",
    ("none", 300, "radix"): "1291500.0",
    ("none", 60000, "hash"): "57504000.0",
    ("none", 60000, "loop"): "240000001000.0",
    ("none", 60000, "merge"): "367149087.0162879",
    ("none", 60000, "radix"): "59065000.0",
    ("none", 2500000, "hash"): "1062504000.0",
    ("none", 2500000, "loop"): "150000000001000.0",
    ("none", 2500000, "merge"): "9584672789.653187",
    ("none", 2500000, "radix"): "1095536000.0",
    ("small", 300, "hash"): "1870999.0",
    ("small", 300, "loop"): "30001000.0",
    ("small", 300, "merge"): "5324576.60039168",
    ("small", 300, "radix"): "1569100.0",
    ("small", 60000, "hash"): "96451233.0",
    ("small", 60000, "loop"): "240000001000.0",
    ("small", 60000, "merge"): "367149087.0162879",
    ("small", 60000, "radix"): "83236000.0",
    ("small", 2500000, "hash"): "1887477259.0",
    ("small", 2500000, "loop"): "150000000001000.0",
    ("small", 2500000, "merge"): "9584672789.653187",
    ("small", 2500000, "radix"): "1950840298.0",
}


def star_database(n: int = 5_000) -> Database:
    rng = np.random.default_rng(7)
    db = Database(name="charges")
    db.create_table(Table.from_columns(
        "fact", [("id", DataType.INT64), ("fk", DataType.INT64),
                 ("k", DataType.INT64), ("v", DataType.FLOAT64),
                 ("tag", DataType.STRING)],
        {"id": np.arange(n), "fk": rng.integers(0, 300, n),
         "k": rng.integers(0, 500, n), "v": rng.random(n) * 100.0,
         "tag": rng.choice(["red", "green", "blue"], n)}))
    db.create_table(Table.from_columns(
        "dim", [("pk", DataType.INT64), ("grp", DataType.INT64)],
        {"pk": np.arange(300), "grp": rng.integers(0, 7, 300)}))
    return db


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def run_profile(db: Database, executor: str):
    """Every charge by operator kind, every operator span's kernel
    label, and every EXPLAIN text of *executor* over CONFIGS x QUERIES."""
    charges = defaultdict(list)
    spans, explains = [], []
    running, where = [], [""]
    execute, charge_cpu = PlanNode.execute, ExecutionContext.charge_cpu

    def traced_execute(node, ctx):
        running.append(type(node).__name__)
        try:
            return execute(node, ctx)
        finally:
            running.pop()

    def recorded_charge(ctx, category, ns):
        kind = running[-1] if running else "engine"
        charges[kind].append(f"{where[0]}|{category}|{ns!r}")
        charge_cpu(ctx, category, ns)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PlanNode, "execute", traced_execute)
        patch.setattr(ExecutionContext, "charge_cpu", recorded_charge)
        for config_name, overrides in CONFIGS.items():
            engine = Engine(db, EngineConfig(executor=executor,
                                             **overrides))
            engine.create_index("fact", "k")
            for query_name, sql in QUERIES.items():
                where[0] = f"{config_name}/{query_name}"
                tracer = Tracer(clock=engine.clock)
                with tracer.activate():
                    analyzed = engine.explain_analyze(sql)
                explains += [where[0], engine.explain(sql), analyzed]
                spans += [(where[0], span.attributes["kind"],
                           span.attributes.get("kernel"))
                          for span in tracer.trace()
                          if span.category == "operator"]
    return ({kind: _digest(lines) for kind, lines in charges.items()},
            spans, _digest(explains))


def run_results(db: Database, executor: str):
    """Digests of the peak working set and of the rows of every result
    of *executor* over CONFIGS x QUERIES."""
    peaks, rows = [], []
    for config_name, overrides in CONFIGS.items():
        engine = Engine(db, EngineConfig(executor=executor, **overrides))
        engine.create_index("fact", "k")
        for query_name, sql in QUERIES.items():
            result = engine.execute(sql)
            where = f"{config_name}/{query_name}"
            peaks.append(f"{where}|{result.peak_memory_bytes}")
            rows.append(f"{where}|{result.columns!r}|{result.rows!r}")
    return _digest(peaks), _digest(rows)


@pytest.fixture(scope="module")
def runs():
    db = star_database()
    return {executor: run_profile(db, executor) for executor in PROFILES}


@pytest.mark.parametrize("executor", PROFILES)
def test_every_operator_kind_is_reached(runs, executor):
    __, spans, __ = runs[executor]
    kinds = {kind for __, kind, __ in spans}
    assert kinds == {"SeqScan", "IndexScan", "Filter", "Project", "Sort",
                     "Limit", "HashJoin", "RadixHashJoin", "MergeJoin",
                     "NestedLoopJoin", "Aggregate", "Distinct"}


@pytest.mark.parametrize("executor", PROFILES)
def test_charges_pinned(runs, executor):
    charges, __, __ = runs[executor]
    assert charges == CHARGES[executor]


@pytest.mark.parametrize("executor", PROFILES)
def test_kernel_span_labels(runs, executor):
    __, spans, __ = runs[executor]
    labels = KERNEL_LABELS if executor.startswith("vectorized") else {}
    for where, kind, kernel in spans:
        assert kernel == labels.get(kind), (where, kind)


@pytest.mark.parametrize("executor", PROFILES)
def test_explain_pinned(runs, executor):
    __, __, explain = runs[executor]
    assert explain == EXPLAIN[executor]


@pytest.fixture(scope="module")
def results():
    db = star_database()
    return {executor: run_results(db, executor) for executor in PROFILES}


@pytest.mark.parametrize("executor", PROFILES)
def test_peak_memory_pinned(results, executor):
    peaks, __ = results[executor]
    assert peaks == PEAK_MEMORY[executor]


@pytest.mark.parametrize("executor", PROFILES)
def test_rows_pinned(results, executor):
    __, rows = results[executor]
    assert rows == ROWS[executor]


def join_costs():
    caches = {"none": None,
              "laptop": CacheModel.tutorial_laptop().hierarchy(),
              "small": CacheModel(l1_kb=1, l2_kb=4).hierarchy()}
    costs = {}
    for cache_name, cache in caches.items():
        for rows_left, rows_right, rows_out in STEPS:
            step = JoinStep(table="r", left_keys=("fk",),
                            right_keys=("pk",), rows_left=rows_left,
                            rows_right=rows_right, rows_out=rows_out)
            for operator in JOIN_OPERATORS:
                costs[(cache_name, int(rows_right), operator)] = repr(
                    join_operator_cost(DEFAULT_COST_MODEL, operator, step,
                                       cache=cache))
    return costs


def test_join_operator_costs_pinned():
    assert join_costs() == JOIN_COSTS
