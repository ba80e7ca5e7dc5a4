"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload tpch --seed 1 --seconds 10 --trace 0

``--seconds`` fixes how much work the run does, from a per-workload
rate measured on a 2-core host (:data:`OPS_PER_SECOND`); the run never
stops on a timer.  ``--trace 0`` measures the end-to-end metrics with
no tracing.  ``--trace 1`` runs the same work twice, untraced and then
with layer spans, and prints the per-layer metrics; it writes the spans
and a per-layer table under ``perfbench/out/``.  Every run checks the
program's outputs after its timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Operations per ``--seconds`` of run time: a statement on tpch and
#: adhoc, a design point on campaign (8 per campaign).
OPS_PER_SECOND = {"tpch": 44, "adhoc": 700, "campaign": 7}

#: Set-ups per ``--trace 0`` run; setup_s is their median.
SETUPS = 3

Metric = Tuple[float, str, int]  # value, unit, samples


def clopper_pearson_upper(failed: int, attempted: int,
                          confidence: float = 0.95) -> float:
    """One-sided upper confidence bound on a failure probability.

    ``error_rate`` reports this bound rather than ``failed/attempted``
    so that it stays above zero when no operation fails; the raw counts
    are in the result's ``failed`` and ``attempted``.
    """
    from scipy.stats import beta

    if failed >= attempted:
        return 1.0
    return float(beta.ppf(confidence, failed + 1, attempted - failed))


def end_to_end(timed, check, setups: List[float],
               peak_rss_mb: float) -> Dict[str, Metric]:
    """The end-to-end metrics of one untraced run.

    Throughput is the median over the run's sub-runs (groups of whole
    template cycles, or single campaigns), so a burst of interference from
    other processes on the host moves one sub-run rather than the result.
    Percentiles pool every op: per sub-run, a ``tpch`` p95 would
    interpolate between the Q1 and Q9 clusters.
    """
    from repro.measurement.stats import percentiles

    latencies = [x * 1000.0 for xs in timed.latencies.values() for x in xs]
    tail = percentiles(latencies, (50.0, 95.0)).levels
    medians = [statistics.median(xs) * 1000.0
               for xs in timed.latencies.values()]
    geomean = math.exp(sum(math.log(m) for m in medians) / len(medians))
    completed = timed.ops - timed.failed
    failed = timed.failed + sum(check.wrong.values())
    return {
        "ops_per_s": (statistics.median(ops / wall for ops, wall
                                        in timed.subruns),
                      "ops/s", completed),
        "latency_p50_ms": (tail[50.0], "ms", len(latencies)),
        "latency_p95_ms": (tail[95.0], "ms", len(latencies)),
        "geomean_ms": (geomean, "ms", len(latencies)),
        "sim_ms_per_op": (statistics.fmean(timed.sim_ms), "sim_ms",
                          len(timed.sim_ms)),
        "error_rate": (clopper_pearson_upper(failed, timed.ops), "ratio",
                       timed.ops),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


#: The operator kinds and kernel functions the per-layer metrics name.
OPERATOR_KINDS = ("SeqScan", "IndexScan", "Filter", "Project", "HashJoin",
                  "MergeJoin", "NestedLoopJoin", "Aggregate", "Sort",
                  "Distinct", "Limit")
KERNEL_FNS = ("dict_encode", "encode_join_keys", "join_match",
              "grouped_reduce", "gather", "compile_expr")


def per_layer(tracer, timed, untraced_wall_s: float) -> Dict[str, Metric]:
    """Per-op layer metrics of one traced pass (see README.md)."""
    ops = timed.ops
    by_name = tracer.self_ms_by(lambda s: s.name)
    by_layer = tracer.self_ms_by(lambda s: s.layer)
    calls = tracer.calls_by(lambda s: s.layer)
    counts = dict(tracer.counts)
    counts.update(timed.counts)
    n_spans = len(tracer.op_spans())

    def per_op(value: float, unit: str) -> Metric:
        return (value / ops, unit, ops)

    def ratio(num: float, den: float, n: int) -> Metric:
        return (num / den if den else 0.0, "ratio", n)

    metrics: Dict[str, Metric] = {}
    for fn in KERNEL_FNS:
        metrics[f"kernels.{fn}.self_ms"] = per_op(
            by_name.get(f"kernels.{fn}", 0.0), "ms/op")
    metrics["kernels.calls"] = per_op(calls.get("kernels", 0), "count/op")
    metrics["kernels.expr_cache_hit_rate"] = (
        counts.get("expr_cache_hit_rate", 0.0), "ratio", ops)
    metrics["kernels.expr_cache_entries"] = (
        counts.get("expr_cache_entries", 0.0), "count", 1)
    for kind in OPERATOR_KINDS:
        metrics[f"operators.{kind}.self_ms"] = per_op(
            by_name.get(f"operators.{kind}", 0.0), "ms/op")
    metrics["operators.rows_out"] = per_op(counts.get("rows_out", 0.0),
                                           "count/op")
    for layer in ("parser", "optimizer"):
        metrics[f"{layer}.self_ms"] = per_op(by_layer.get(layer, 0.0),
                                             "ms/op")
        metrics[f"{layer}.calls"] = per_op(calls.get(layer, 0), "count/op")
    for layer in ("engine", "systems"):
        metrics[f"{layer}.self_ms"] = per_op(by_layer.get(layer, 0.0),
                                             "ms/op")
    metrics["engine.plan_cache_hit_rate"] = (
        counts.get("plan_cache_hit_rate", 0.0), "ratio", ops)
    metrics["engine.plan_cache_entries"] = (
        counts.get("plan_cache_entries", 0.0), "count", 1)
    metrics["zonemaps.self_ms"] = per_op(by_layer.get("zonemaps", 0.0),
                                         "ms/op")
    metrics["zonemaps.blocks_pruned_ratio"] = ratio(
        counts.get("zone_blocks_pruned", 0.0),
        counts.get("zone_blocks", 0.0), ops)
    hits = counts.get("buffer_hits", 0.0)
    misses = counts.get("buffer_misses", 0.0)
    metrics["buffer.self_ms"] = per_op(by_layer.get("buffer", 0.0), "ms/op")
    metrics["buffer.hit_rate"] = ratio(hits, hits + misses, ops)
    metrics["buffer.evictions"] = per_op(counts.get("buffer_evictions", 0.0),
                                         "count/op")
    metrics["buffer.pages_read"] = per_op(
        counts.get("buffer_pages_read", 0.0), "count/op")
    metrics["optimizer.plans_considered"] = per_op(
        counts.get("plans_considered", 0.0), "count/op")
    qerrors = tracer.qerrors
    metrics["optimizer.median_qerror"] = (
        statistics.median(qerrors) if qerrors else 0.0, "ratio", len(qerrors))
    for phase in ("parse", "optimize", "execute"):
        metrics[f"sim.{phase}_ms"] = per_op(
            counts.get(f"sim_{phase}_ms", 0.0), "sim_ms/op")
    for layer in ("measurement", "client"):
        metrics[f"{layer}.self_ms"] = per_op(by_layer.get(layer, 0.0),
                                             "ms/op")
    metrics["measurement.attempts"] = per_op(counts.get("attempts", 0.0),
                                             "count/op")
    metrics["measurement.retries"] = per_op(counts.get("retries", 0.0),
                                            "count/op")
    metrics["faults.injected"] = per_op(counts.get("faults_injected", 0.0),
                                        "count/op")
    metrics["parallel.self_ms"] = per_op(by_layer.get("parallel", 0.0),
                                         "ms/op")
    metrics["parallel.journal_bytes"] = per_op(
        counts.get("journal_bytes", 0.0), "B/op")
    metrics["obs.self_ms"] = per_op(by_layer.get("obs", 0.0), "ms/op")
    metrics["obs.spans"] = per_op(counts.get("program_spans", 0.0),
                                  "count/op")
    for layer in ("core", "speedup"):
        metrics[f"{layer}.self_ms"] = per_op(by_layer.get(layer, 0.0),
                                             "ms/op")
    generate = [s for s in tracer.spans if s.name == "workloads"]
    metrics["workloads.generate_s"] = (
        sum(s.end - s.start for s in generate) / 1e9, "s", len(generate))
    metrics["bench.uncovered_share"] = (tracer.uncovered_share(), "ratio",
                                        n_spans)
    metrics["bench.trace_overhead"] = (timed.wall_s / untraced_wall_s,
                                       "ratio", 2)
    return metrics


def measure(name: str, seed: int, n_ops: int, trace: bool,
            sf: Optional[float] = None, setups: int = SETUPS,
            out_dir: Path = OUT):
    """Run one workload in this process.

    Returns ``(metrics, timed, check, tracer)``; *tracer* is the
    :class:`~perfbench.layers.LayerTracer` of a traced run, else None.
    Temporary files go under *out_dir*.  The tests call this with small
    sizes.
    """
    from perfbench.layers import LayerTracer
    from perfbench.workloads import WORKLOADS, CampaignWorkload

    out_dir.mkdir(parents=True, exist_ok=True)
    kwargs = {} if sf is None else {"sf": sf}
    if WORKLOADS[name] is CampaignWorkload:
        kwargs["out_dir"] = out_dir
    workload = WORKLOADS[name](seed, n_ops, **kwargs)
    if not trace:
        setup_s = []
        for __ in range(setups):
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        timed = workload.run()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check = workload.check()
        return end_to_end(timed, check, setup_s, peak_rss_mb), timed, \
            check, None
    workload.setup()
    untraced = workload.run()
    tracer = LayerTracer()
    with tracer.installed():
        workload.setup()
        timed = workload.run(tracer)
    check = workload.check()
    return per_layer(tracer, timed, untraced.wall_s), timed, check, tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(OPS_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run "
              "from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    # Import the program and this package from the checkout, never from
    # an installed copy; the script's own directory is not a package root.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import KNOWN_WRONG

    n_ops = args.seconds * OPS_PER_SECOND[args.workload]
    metrics, timed, check, tracer = measure(
        args.workload, args.seed, n_ops, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {timed.ops} ops in {timed.wall_s:.3f} s")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<10} n={n}")
    wrong = sum(check.wrong.values())
    print(f"checks: {check.checked} outputs checked, {timed.failed} ops "
          f"raised, {wrong} wrong"
          + "".join(f"; {t} x{n}" for t, n in sorted(check.wrong.items())))
    for (workload, template), why in sorted(KNOWN_WRONG.items()):
        if workload == args.workload:
            seen = "seen" if check.wrong.get(template) else "NOT seen"
            print(f"known defect {template} ({seen}): {why}")
    for problem in check.unexpected:
        print(f"UNEXPECTED: {problem}")
    if tracer is not None:
        trace_dir = tracer.write(OUT / f"{args.workload}-seed{args.seed}",
                                 timed.ops)
        print(f"spans and per-layer table: {trace_dir}")
    correct = not check.unexpected and check.checked > 0
    print(json.dumps({
        "correct": correct,
        "attempted": timed.ops,
        "failed": timed.failed + wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, __) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
