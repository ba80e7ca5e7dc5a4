"""E22 — same query, two very different traces (slide 54, executable).

The tutorial's slide 54 shows the moment profiling becomes diagnosis:
the *same* query produces two completely different execution traces on
two configurations, and only the trace — not the end-to-end number —
says why.  This experiment reproduces that contrast on MiniDB and then
demonstrates the full observability surface built in :mod:`repro.obs`:

1. **Contrast runs** — one TPC-H query executed on a *tuned* stack
   (large buffer pool, column-at-a-time execution) and on an *untuned*
   one (tiny buffer pool, tuple-at-a-time).  Each run is traced on its
   engine's own virtual clock with hardware counters attached, and
   rendered as an ASCII flamegraph plus a self-time share table.  The
   two flamegraphs have visibly different shapes: the untuned trace is
   dominated by buffer/disk work, the tuned one by operator time.

2. **A traced campaign** — the e21-style seeded 2^3 factorial under
   injected faults and a retry policy, run with a
   :class:`~repro.obs.Tracer` handed to the harness.  The resulting
   :class:`~repro.obs.Trace` nests harness -> protocol -> engine phases
   -> operators -> buffer pool, carries ``fault.injected`` /
   ``retry.backoff`` events at the exact simulated times they fired,
   and exports byte-identically across same-seed re-runs.

With ``trace_dir`` set (the report does this for E22's artifact
directory), the campaign trace is written as a JSONL span log and a
Chrome ``trace_event`` file (load it at ``chrome://tracing``), and the
contrast flamegraphs as a text report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core import TwoLevelFactorialDesign
from repro.db import Client, Engine, EngineConfig, FileSink
from repro.experiments.e21_fault_tolerance import (
    FaultyQueryWorkload,
    make_space,
)
from repro.faults import FaultPlan
from repro.measurement import (
    LAST_OF_THREE_HOT,
    ConfidenceInterval,
    PickRule,
    RetryPolicy,
    VirtualClock,
    bootstrap_speedup_ci,
    speedup as speedup_estimate,
)
from repro.measurement.harness import run_harness
from repro.obs import (
    MetricsRegistry,
    Trace,
    Tracer,
    write_chrome_trace,
    write_jsonl,
)
from repro.viz import render_flamegraph, render_span_shares
from repro.workloads import generate_tpch, tpch_query

#: The two stacks of the slide-54 contrast.
TUNED_CONFIG = EngineConfig(buffer_pages=4096, executor="loop",
                            tuned=True)
UNTUNED_CONFIG = EngineConfig(buffer_pages=8, executor="tuple",
                              tuned=False)


@dataclass(frozen=True)
class ContrastRun:
    """One traced execution of the query on one configuration."""

    label: str
    config: str
    total_ms: float
    n_spans: int
    buffer_hits: int
    buffer_misses: int
    io_pages: int
    shares: str
    flamegraph: str

    def format(self) -> str:
        lines = [
            f"{self.label} ({self.config}): {self.total_ms:.1f} "
            f"simulated ms, {self.n_spans} spans, buffer "
            f"{self.buffer_hits} hit / {self.buffer_misses} miss, "
            f"{self.io_pages} pages read",
            self.flamegraph,
            "top self-time shares:",
            self.shares,
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class E22Result:
    """The contrast pair plus the traced fault-injected campaign."""

    contrasts: Tuple[ContrastRun, ...]
    slowdown: float
    campaign_trace: Trace
    campaign_documentation: str
    n_fault_events: int
    n_backoff_events: int
    metrics: str
    written: Tuple[str, ...] = ()
    #: Touati-style restatement of the headline slowdown: the contrast
    #: pair re-run on ``ci_seeds`` different data seeds, the slowdown
    #: summarised with a bootstrap CI under the ``median`` protocol and
    #: the ``min``-protocol point estimate alongside.
    slowdown_ci: Optional[ConfidenceInterval] = None
    slowdown_min: float = 0.0
    ci_seeds: int = 0

    def contrast(self, label: str) -> ContrastRun:
        for run in self.contrasts:
            if run.label == label:
                return run
        raise KeyError(f"no contrast run labelled {label!r}")

    def format(self) -> str:
        lines = ["E22: same query, two very different traces (slide 54)",
                 ""]
        for run in self.contrasts:
            lines += [run.format(), ""]
        lines += [
            f"untuned/tuned slowdown: {self.slowdown:.1f}x — the "
            "flamegraphs say *why*: the untuned stack spends its time "
            "in buffer/disk spans, the tuned one in operators",
        ]
        if self.slowdown_ci is not None:
            ci = self.slowdown_ci
            lines.append(
                f"slowdown over {self.ci_seeds} data seeds: median "
                f"{ci.mean:.2f}x [{ci.low:.2f}, {ci.high:.2f}] at "
                f"{ci.confidence:.0%} (bootstrap), "
                f"min {self.slowdown_min:.2f}x")
        lines += [
            "",
            "traced fault-injected campaign "
            f"({self.campaign_trace.summary()}):",
            f"  {self.n_fault_events} fault.injected event(s), "
            f"{self.n_backoff_events} retry.backoff event(s) on the "
            "span timeline",
            f"  {self.campaign_documentation}",
            "",
            "campaign metrics registry:",
            self.metrics,
        ]
        if self.written:
            lines += ["", "trace artifacts written:"]
            lines += [f"  {path}" for path in self.written]
        return "\n".join(lines)


def _traced_query(database, sql: str, label: str,
                  config: EngineConfig) -> Tuple[ContrastRun, Trace]:
    """Run *sql* hot on a fresh stack under a dedicated tracer.

    The stack is warmed with one untraced run first (slide 54's traces
    are hot runs): the tuned pool then serves the table from memory
    while the untuned 8-page pool still misses on every scan — which is
    exactly the shape difference the two flamegraphs show.
    """
    clock = VirtualClock()
    engine = Engine(database, config, clock=clock)
    client = Client(engine, FileSink())
    client.run(sql)  # warm-up, untraced
    engine.buffer_pool.reset_statistics()
    tracer = Tracer(clock=clock, counters=engine.counters)
    with tracer.activate():
        with tracer.span(f"contrast.{label}", "contrast",
                         executor=config.executor,
                         buffer_pages=config.buffer_pages,
                         tuned=config.tuned):
            client.run(sql)
    trace = tracer.trace()
    stats = engine.statistics()
    description = (f"{config.executor} executor, "
                   f"{config.buffer_pages} buffer pages, "
                   f"{'tuned' if config.tuned else 'untuned'}")
    return ContrastRun(
        label=label,
        config=description,
        total_ms=trace.duration_s * 1000.0,
        n_spans=len(trace),
        buffer_hits=int(stats["buffer_hits"]),
        buffer_misses=int(stats["buffer_misses"]),
        io_pages=int(stats["io_pages_read"]),
        shares=render_span_shares(trace, top=6),
        flamegraph=render_flamegraph(trace, width=100, max_depth=5),
    ), trace


def _traced_campaign(database, sql: str, seed: int,
                     fault_probability: float
                     ) -> Tuple[Trace, str, MetricsRegistry]:
    """The e21 campaign, this time with the tracer watching."""
    clock = VirtualClock()
    plan = FaultPlan.uniform(fault_probability, seed=seed,
                             sites=("client.run",))
    workload = FaultyQueryWorkload(database, sql, clock, plan.injector())
    registry = MetricsRegistry()
    tracer = Tracer(clock=clock, registry=registry)
    report = run_harness(
        TwoLevelFactorialDesign(make_space()), workload,
        LAST_OF_THREE_HOT, clock=clock,
        retry=RetryPolicy(max_attempts=3), on_error="record",
        name="e22", tracer=tracer)
    return report.trace, report.documentation(), registry


def run_e22(sf: float = 0.002, seed: int = 42, query: int = 1,
            fault_probability: float = 0.2,
            trace_dir: Optional[str] = None,
            ci_seeds: int = 3) -> E22Result:
    """Run the contrast and the traced campaign; see module docstring.

    With *trace_dir* set, writes ``trace.jsonl`` (span log),
    ``trace.chrome.json`` (Chrome trace_event format) and
    ``flamegraph.txt`` (the contrast report) into that directory.

    ``ci_seeds`` replays the contrast pair on that many data seeds
    (``seed .. seed + ci_seeds - 1``) so the headline slowdown ships
    with a bootstrap confidence interval instead of a single ratio;
    ``ci_seeds=0`` skips the restatement.
    """
    database = generate_tpch(sf=sf, seed=seed)
    sql = tpch_query(query)

    tuned, __ = _traced_query(database, sql, "tuned", TUNED_CONFIG)
    untuned, __ = _traced_query(database, sql, "untuned", UNTUNED_CONFIG)
    slowdown = untuned.total_ms / tuned.total_ms if tuned.total_ms \
        else float("inf")

    slowdown_ci = None
    slowdown_min = 0.0
    if ci_seeds > 0:
        tuned_ms = [tuned.total_ms]
        untuned_ms = [untuned.total_ms]
        for extra_seed in range(seed + 1, seed + ci_seeds):
            replica = generate_tpch(sf=sf, seed=extra_seed)
            t, __ = _traced_query(replica, sql, "tuned", TUNED_CONFIG)
            u, __ = _traced_query(replica, sql, "untuned",
                                  UNTUNED_CONFIG)
            tuned_ms.append(t.total_ms)
            untuned_ms.append(u.total_ms)
        slowdown_ci = bootstrap_speedup_ci(untuned_ms, tuned_ms,
                                           protocol=PickRule.MEDIAN,
                                           seed=0)
        slowdown_min = speedup_estimate(untuned_ms, tuned_ms,
                                        protocol=PickRule.MIN)

    trace, documentation, registry = _traced_campaign(
        database, sql, seed, fault_probability)

    written = []
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        jsonl_path = os.path.join(trace_dir, "trace.jsonl")
        write_jsonl(trace, jsonl_path)
        chrome_path = os.path.join(trace_dir, "trace.chrome.json")
        write_chrome_trace(trace, chrome_path, process_name="repro-e22")
        flame_path = os.path.join(trace_dir, "flamegraph.txt")
        with open(flame_path, "w", encoding="utf-8") as handle:
            handle.write(tuned.format() + "\n\n" + untuned.format()
                         + "\n\ncampaign: " + trace.summary() + "\n")
        written = [jsonl_path, chrome_path, flame_path]

    return E22Result(
        contrasts=(tuned, untuned),
        slowdown=slowdown,
        campaign_trace=trace,
        campaign_documentation=documentation,
        n_fault_events=len(trace.events("fault.injected")),
        n_backoff_events=len(trace.events("retry.backoff")),
        metrics=registry.format(),
        written=tuple(written),
        slowdown_ci=slowdown_ci,
        slowdown_min=slowdown_min,
        ci_seeds=ci_seeds if slowdown_ci is not None else 0,
    )

