"""E22 bench — the slide-54 contrast, plus the tracing overhead bound.

Runs the full E22 experiment (contrast flamegraphs + traced
fault-injected campaign) and then times the same seeded campaign with
and without a tracer.  The no-tracer path must stay nearly free — the
documented bound is a 2x wall-time ratio (measured ~1.05x), far above
anything a healthy `maybe_span` fast path produces but tight enough to
catch accidental always-on bookkeeping.
"""

import time

from repro.core import TwoLevelFactorialDesign
from repro.experiments import run_e22
from repro.experiments.e21_fault_tolerance import (
    FaultyQueryWorkload,
    make_space,
)
from repro.faults import FaultPlan
from repro.measurement import (
    LAST_OF_THREE_HOT,
    RetryPolicy,
    VirtualClock,
    run_harness,
)
from repro.obs import Tracer
from repro.workloads import generate_tpch, tpch_query

#: Documented ceiling for traced/untraced campaign wall time.
MAX_TRACED_RATIO = 2.0

SF = 0.002
SEED = 42


def _campaign(database, traced: bool) -> float:
    """One seeded campaign; returns its real wall time in seconds."""
    clock = VirtualClock()
    injector = FaultPlan.uniform(0.2, seed=SEED,
                                 sites=("client.run",)).injector()
    workload = FaultyQueryWorkload(database, tpch_query(1), clock,
                                   injector)
    tracer = Tracer(clock=clock) if traced else None
    started = time.perf_counter()
    run_harness(TwoLevelFactorialDesign(make_space()), workload,
                LAST_OF_THREE_HOT, clock=clock,
                retry=RetryPolicy(max_attempts=3), on_error="record",
                name="overhead", tracer=tracer)
    return time.perf_counter() - started


def test_e22_trace_contrast(benchmark, report):
    result = benchmark.pedantic(run_e22, kwargs={"sf": SF, "seed": SEED},
                                rounds=1, iterations=1)
    report(result.format())
    # The slide-54 shape: the untuned stack is slower *because* its
    # trace is buffer/disk-bound while the tuned one is operator-bound.
    assert result.slowdown > 2.0
    tuned = result.contrast("tuned")
    untuned = result.contrast("untuned")
    assert tuned.buffer_misses == 0
    assert untuned.buffer_misses > 0
    assert "buffer.read_table" in untuned.shares.splitlines()[0]
    assert "buffer.read_table" not in tuned.shares.splitlines()[0]
    # The campaign trace carries the fault/retry story as events.
    assert result.n_fault_events > 0
    assert result.n_backoff_events > 0


def test_e22_trace_overhead_bound(report):
    database = generate_tpch(sf=SF, seed=SEED)
    _campaign(database, traced=False)  # warm caches both ways
    _campaign(database, traced=True)
    untraced = min(_campaign(database, traced=False) for __ in range(3))
    traced = min(_campaign(database, traced=True) for __ in range(3))
    ratio = traced / untraced
    report(f"E22 tracing overhead: untraced {untraced * 1000:.1f} ms, "
           f"traced {traced * 1000:.1f} ms, ratio {ratio:.2f}x "
           f"(bound {MAX_TRACED_RATIO:.1f}x)")
    assert ratio < MAX_TRACED_RATIO, (
        f"tracing overhead {ratio:.2f}x exceeds the documented "
        f"{MAX_TRACED_RATIO:.1f}x bound")
