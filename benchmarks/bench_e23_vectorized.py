"""E23 bench — host wall-clock of the MiniDB operators and kernels.

pytest-benchmark cases (picked up by ``scripts/bench_gate.py``) time
hot join and aggregate executions and the raw kernels, so a regression
in the kernels is caught by the benchmark gate like any other slowdown.
The join and aggregate have no WHERE clause, so every cost profile runs
the same host code for them; they differ only in what they charge to
the simulated clock.  One profile (``loop``) is therefore timed.
"""

import numpy as np

from repro.db import kernels
from repro.db.engine import EngineConfig
from repro.workloads.microbench import (
    aggregate_microbenchmark,
    join_microbenchmark,
)

_JOIN_ROWS = 4_000
_AGG_ROWS = 8_000


def _hot_micro(builder, executor):
    micro = builder(EngineConfig(executor=executor))
    micro.run()  # warm: buffer pool, expression cache, plan structures
    return micro


def _join_builder(config):
    return join_microbenchmark(n_left=_JOIN_ROWS, n_right=_JOIN_ROWS // 8,
                               config=config)


def _agg_builder(config):
    return aggregate_microbenchmark(n_rows=_AGG_ROWS, n_groups=64,
                                    config=config)


def test_e23_join_loop(benchmark, report):
    micro = _hot_micro(_join_builder, "loop")
    result = benchmark(micro.run)
    report(f"loop join rows={len(result.rows)}")
    assert result.rows


def test_e23_aggregate_loop(benchmark, report):
    micro = _hot_micro(_agg_builder, "loop")
    result = benchmark(micro.run)
    report(f"loop aggregate groups={len(result.rows)}")
    assert result.rows


def test_e23_kernel_join_match(benchmark, report):
    rng = np.random.default_rng(7)
    left = rng.integers(0, 500, size=_JOIN_ROWS)
    right = np.arange(500, dtype=np.int64)
    left_codes, right_codes = kernels.encode_join_keys([left], [right])
    li, ri = benchmark(kernels.join_match, left_codes, right_codes)
    report(f"join_match pairs={li.size}")
    assert li.size == ri.size > 0


def test_e23_kernel_grouped_reduce(benchmark, report):
    rng = np.random.default_rng(7)
    ids, n_groups = kernels.dict_encode(
        [rng.integers(0, 64, size=_AGG_ROWS)])
    values = rng.random(_AGG_ROWS)
    sums = benchmark(kernels.grouped_reduce, values, ids, n_groups, "sum")
    report(f"grouped_reduce groups={sums.size}")
    assert sums.size == n_groups


def test_e23_kernel_dict_encode(benchmark, report):
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 1_000, size=_AGG_ROWS)
    ids, n_groups = benchmark(kernels.dict_encode, [keys])
    report(f"dict_encode distinct={n_groups}")
    assert ids.size == _AGG_ROWS

