"""Parallel executor bench — sharded campaign speed-up + determinism.

Runs the replicated E07 MiniDB campaign (12 design points, each a real
TPC-H query on a fresh engine) sequentially and through the sharded
executor, reports the wall-clock speed-up, and pins the package's core
guarantee: the merged report is byte-identical to the sequential one.

Scaling is asserted only when the container actually has multiple CPUs
(``os.sched_getaffinity``); on a single core the executor's overhead is
simply reported.  The floor is deliberately conservative — "near
linear" on a quiet multi-core box, but CI containers are noisy
neighbours.
"""

import os
import time

from repro.parallel import CampaignSpec, default_jobs, run_campaign

SPEC = CampaignSpec(
    factory="repro.experiments.e07_design_sizes:"
            "build_e07_replicated_campaign",
    params={"sf": 0.004, "reps": 6, "query": 1}, seed=11,
    name="e07-replicated")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def test_parallel_speedup(benchmark, report):
    jobs = max(2, min(4, default_jobs()))
    t0 = time.perf_counter()
    sequential = run_campaign(SPEC, jobs=1)
    sequential_s = time.perf_counter() - t0

    # Timed here, not read from benchmark.stats: that is None under
    # --benchmark-disable.
    t0 = time.perf_counter()
    parallel = benchmark.pedantic(
        run_campaign, args=(SPEC,), kwargs={"jobs": jobs},
        rounds=1, iterations=1)
    parallel_s = time.perf_counter() - t0

    speedup = sequential_s / parallel_s if parallel_s > 0 else 1.0
    report(f"parallel speed-up: {sequential_s:.2f}s sequential vs "
           f"{parallel_s:.2f}s at jobs={jobs} on {_cpus()} CPU(s) "
           f"-> {speedup:.2f}x\n"
           f"  {parallel.parallel_documentation()}")

    # The guarantee that makes the speed-up safe to take: identical
    # numbers, identical methodology paragraph, any shard layout.
    assert parallel.documentation() == sequential.documentation()
    assert parallel.results.to_csv() == sequential.results.to_csv()
    assert parallel.n_points == len(SPEC.build().design)
    assert parallel.jobs == jobs and sequential.jobs == 1

    if _cpus() >= 2:
        # Near-linear on dedicated cores; conservative floor for CI.
        assert speedup >= 1.3, (
            f"expected parallel speed-up on {_cpus()} CPUs, "
            f"got {speedup:.2f}x")
