"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import measure
from perfbench.workloads import AdhocWorkload, TpchWorkload

ROOT = Path(__file__).resolve().parent.parent

#: Tiny sizes: (n_ops, scale factor) per workload.
TINY = {"tpch": (22, 0.002), "adhoc": (60, 0.002), "campaign": (8, 0.001)}

#: Per-layer metrics that are host times; every other one is an exact
#: count or a ratio of counts.
HOST_TIMED = ("self_ms", "generate_s", "uncovered_share", "trace_overhead")


def _traced(name: str, seed: int, tmp_path: Path):
    n_ops, sf = TINY[name]
    return measure(name, seed, n_ops, trace=True, sf=sf, out_dir=tmp_path)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced tiny run per workload, shared by the coverage tests."""
    out = tmp_path_factory.mktemp("trace")
    return {name: _traced(name, 7, out) for name in TINY}


# -- repeatability -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_repeats_counters_and_simulated_time(name, tmp_path):
    first = _traced(name, 11, tmp_path)[0]
    second = _traced(name, 11, tmp_path)[0]
    exact = {k: v[0] for k, v in first.items()
             if not k.endswith(HOST_TIMED)}
    assert exact == {k: second[k][0] for k in exact}
    n_ops, sf = TINY[name]
    runs = [measure(name, 11, n_ops, trace=False, sf=sf, setups=1,
                    out_dir=tmp_path)[0] for __ in range(2)]
    assert runs[0]["sim_ms_per_op"] == runs[1]["sim_ms_per_op"]
    assert runs[0]["error_rate"] == runs[1]["error_rate"]


def test_seed_changes_literals_not_template_mix():
    n_ops, sf = TINY["adhoc"]
    drawn = []
    for seed in (1, 2):
        workload = AdhocWorkload(seed, n_ops, sf=sf)
        workload.setup()
        drawn.append(workload.statements())
    assert [t for t, __ in drawn[0]] == [t for t, __ in drawn[1]]
    assert [s for __, s in drawn[0]] != [s for __, s in drawn[1]]
    streams = [TpchWorkload(seed, 44, sf=sf).statements() for seed in (1, 2)]
    assert sorted(streams[0]) == sorted(streams[1])


# -- layer coverage ----------------------------------------------------------------

#: Layers (span-name prefixes) each workload must exercise.
EXERCISED = {
    "tpch": ("kernels", "operators", "engine", "systems", "zonemaps",
             "buffer"),
    "adhoc": ("parser", "optimizer", "engine", "systems", "zonemaps",
              "kernels", "operators.IndexScan"),
    "campaign": ("parallel", "measurement", "client", "obs", "core",
                 "speedup", "operators.Aggregate", "buffer"),
}


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_each_layer_produces_spans_where_exercised(name, traced):
    metrics, __, check, tracer = traced[name]
    assert not check.unexpected
    assert metrics["workloads.generate_s"][0] > 0.0
    assert metrics["bench.uncovered_share"][0] < 0.05
    calls = tracer.calls_by(lambda span: span.name)
    for layer in EXERCISED[name]:
        assert any(n == layer or n.startswith(layer + ".") for n in calls), \
            f"no {layer} spans on {name}"


def test_tpch_hits_the_plan_cache_after_warmup(traced):
    metrics = traced["tpch"][0]
    assert metrics["parser.calls"][0] == 0
    assert metrics["optimizer.calls"][0] == 0
    assert metrics["engine.plan_cache_hit_rate"][0] == 1.0


def test_program_tracing_is_on_only_for_the_campaign(traced):
    assert traced["tpch"][0]["obs.spans"][0] == 0
    assert traced["adhoc"][0]["obs.spans"][0] == 0
    assert traced["campaign"][0]["obs.spans"][0] > 0


def test_campaign_retries_fire_and_no_point_is_lost(traced):
    metrics, timed, __, __ = traced["campaign"]
    assert metrics["measurement.retries"][0] >= 1.0
    assert metrics["faults.injected"][0] >= 1.0
    assert timed.failed == 0


# -- the command ------------------------------------------------------------------

def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
