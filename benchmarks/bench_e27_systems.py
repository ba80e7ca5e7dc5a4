"""E27 bench — per-backend query latency through the systems layer.

One pytest-benchmark case per host body executing the same star query
through the :class:`~repro.db.systems.DatabaseSystem` interface, plus
one forced join-order case per body so plan-forcing overhead (hint
parsing, SQLite translation, pragma toggling) is gated like any other
cost.  The bodies are ``minidb-loop`` and ``sqlite``: MiniDB's cost
profiles run the same host code and differ only in what they charge.

Every case tags ``benchmark.extra_info["backend"]`` with the system
name; ``scripts/bench_gate.py`` carries the tag into
``BENCH_HISTORY.jsonl`` so trend lines separate per system.
"""

import pytest

from repro.db import default_systems
from repro.experiments.e25_optimizer import star_database, star_queries

_N_FACT = 2_000
_FORCED = ("cust", "fact", "part")

_SQL = star_queries()[0].sql


def _loaded(name):
    system = next(s for s in default_systems() if s.name == name)
    system.connect()
    system.load(star_database(n_fact=_N_FACT))
    system.execute(_SQL)  # warm: buffer pool, plan cache, page cache
    return system


_BACKENDS = ("minidb-loop", "sqlite")


@pytest.mark.parametrize("backend", _BACKENDS)
def test_e27_execute(benchmark, report, backend):
    system = _loaded(backend)
    benchmark.extra_info["backend"] = backend
    result = benchmark(lambda: system.execute(_SQL))
    report(f"{backend}: rows={result.n_rows} "
           f"wall={1000 * result.wall_s:.3f}ms")
    assert result.n_rows > 0


@pytest.mark.parametrize("backend", _BACKENDS)
def test_e27_execute_forced(benchmark, report, backend):
    system = _loaded(backend)
    forced_sql = system.force_plan(_SQL, _FORCED)
    benchmark.extra_info["backend"] = backend
    result = benchmark(lambda: system.execute(forced_sql))
    plan = system.explain(forced_sql)
    report(f"{backend} forced {'-'.join(_FORCED)}: "
           f"order={list(plan.join_order)}")
    assert plan.join_order == _FORCED
    assert result.n_rows > 0
