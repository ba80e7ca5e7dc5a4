"""E24 — tail latency and throughput under load, overload, and faults.

The tutorial's capacity lesson in executable form: a server's useful
output rises linearly with offered load until the knee, then *what
happens next is a design decision*.  This experiment drives MiniDB
through the :mod:`repro.serve` simulator over a factorial grid of

- ``load``: offered load as a multiplier of calibrated capacity
  (well below the knee to well past it);
- ``policy``: the protection envelope — ``none`` (unbounded queue, no
  breaker, the control condition) vs a bounded queue with ``reject``,
  ``shed-oldest``, or ``degrade`` shedding, deadline cancellation, a
  retry policy, and a circuit breaker;
- ``faults``: fault profile ``none`` vs ``burst`` (a scheduled run of
  consecutive ``engine.execute`` failures mid-run, recoverable by
  retrying),

and reports, per cell: throughput and goodput (on-time completions),
latency percentiles (p50/p95/p99/max), queue-wait percentiles, breaker
transitions, and a survival verdict (healthy / degraded / overloaded).

The whole grid is deterministic: each cell's seed is
:func:`~repro.parallel.spec.derive_point_seed` of the campaign seed,
every cell rebuilds its own engine from a fixed data seed, and the
serving simulation runs in virtual time — so ``jobs=1`` and ``jobs=N``
produce byte-identical results, and so does running the campaign twice.

Expected shape: throughput-vs-offered-load rises with slope 1, then
flattens at capacity (the knee); past the knee the unprotected
configuration's goodput *collapses* (every response is late) while the
protected configurations keep goodput pinned near capacity — the
entire argument for admission control in two curves.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.db import Engine, EngineConfig
from repro.errors import ServeError
from repro.faults import FaultPlan
from repro.measurement.results import ResultSet
from repro.measurement.retry import RetryPolicy
from repro.parallel.executor import DEFAULT_START_METHOD
from repro.parallel.spec import derive_point_seed
from repro.repeat.properties import Properties
from repro.repeat.suite import ExperimentSuite
from repro.serve import (
    AdmissionConfig,
    BreakerConfig,
    ServeConfig,
    ServingSimulation,
    make_traffic,
)
from repro.serve.traffic import OpenLoopTraffic
from repro.viz.charts import ChartSpec, Series, line_chart
from repro.viz.guidelines import Finding, errors_only, lint_chart
from repro.workloads.microbench import select_microbenchmark

#: Offered load as multiples of calibrated capacity: three points below
#: the knee, one near it, two past it (the ``saturation-coverage``
#: chart rule needs the flat tail to be visible).
DEFAULT_LOADS: Tuple[float, ...] = (0.3, 0.6, 0.9, 1.2, 1.8, 2.5)

#: The admission-policy factor.  ``none`` is the unprotected control.
DEFAULT_POLICIES: Tuple[str, ...] = ("none", "reject", "shed-oldest",
                                     "degrade")

#: The fault-profile factor.
DEFAULT_FAULT_PROFILES: Tuple[str, ...] = ("none", "burst")

#: Serving-mix table size and selectivity (one warm point query).
DEFAULT_ROWS = 4_000
SELECTIVITY = 0.2
DATA_SEED = 7

DEFAULT_WORKERS = 2
#: Per-cell horizon in simulated seconds.  Every time constant of the
#: grid (deadline, breaker cooldown) scales with the calibrated service
#: time, so a short horizon still holds hundreds of request lifetimes.
DEFAULT_DURATION_S = 0.06
DEFAULT_QUEUE_LIMIT = 16
SESSIONS = 4

#: The ``burst`` profile: these consecutive ``engine.execute``
#: operations fail with a (retryable) QueryTimeoutError.  Schedule-only
#: rules draw no randomness, so the burst hits the same operations in
#: every cell regardless of seed.
BURST_OPS: Tuple[int, ...] = tuple(range(10, 41))

#: Per-request retry budget of the protected configurations; enough to
#: ride out short fault runs, small enough that a saturated burst still
#: produces failures for the breaker to see.
PROTECTED_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.0005,
                              backoff_factor=2.0)


def _engine_config() -> EngineConfig:
    return EngineConfig(executor="vectorized", plan_cache=True)


def _build_engine(rows: int, faults=None) -> Tuple[Engine, str]:
    """The serving database plus its point query, optionally faulted."""
    micro = select_microbenchmark(rows, SELECTIVITY, seed=DATA_SEED,
                                  config=_engine_config())
    if faults is None:
        return micro.engine, micro.sql
    engine = Engine(micro.engine.database, _engine_config(),
                    faults=faults)
    return engine, micro.sql


def calibrate(rows: int = DEFAULT_ROWS,
              workers: int = DEFAULT_WORKERS) -> Tuple[float, float]:
    """``(warm_service_s, capacity_req_per_s)`` of the serving query.

    Capacity is the classical ``workers / service_time``: the
    simulation's session slots are the only resource, so the bound is
    exact, and the load factor of the grid multiplies it.
    """
    engine, sql = _build_engine(rows)
    engine.execute(sql)          # cold: buffer pool + plan cache fill
    engine.execute(sql)
    before = engine.clock.now
    engine.execute(sql)
    service_s = engine.clock.now - before
    if service_s <= 0:
        raise ServeError("calibration measured a zero service time")
    return service_s, workers / service_s


def make_cell_config(policy: str, service_s: float,
                     workers: int = DEFAULT_WORKERS,
                     queue_limit: int = DEFAULT_QUEUE_LIMIT
                     ) -> ServeConfig:
    """The :class:`ServeConfig` of one policy cell.

    Every time constant scales with the calibrated service time so the
    grid stays meaningful when the table size changes: the deadline is
    40 service times (a bounded queue keeps waits well inside it, an
    unbounded queue past the knee blows through it), the breaker
    cooldown 30 service times.
    """
    deadline_s = 40.0 * service_s
    if policy == "none":
        return ServeConfig.unprotected(workers=workers,
                                       deadline_s=deadline_s)
    return ServeConfig(
        workers=workers,
        admission=AdmissionConfig(policy=policy,
                                  queue_limit=queue_limit),
        breaker=BreakerConfig(window=16, min_samples=8,
                              error_rate_threshold=0.5,
                              cooldown_s=30.0 * service_s,
                              half_open_probes=2),
        deadline_s=deadline_s, cancel_expired=True,
        retry=PROTECTED_RETRY)


def make_injector(profile: str, seed: int):
    """The fault injector of one cell, or None for the clean profile."""
    if profile == "none":
        return None
    if profile == "burst":
        return FaultPlan.scheduled("engine.execute", BURST_OPS,
                                   seed=seed).injector()
    raise ServeError(
        f"unknown fault profile {profile!r}; valid: "
        + ", ".join(repr(p) for p in DEFAULT_FAULT_PROFILES))


@dataclass(frozen=True)
class CellResult:
    """One grid cell's summary (the full ServeReport stays local)."""

    index: int
    load: float
    policy: str
    faults: str
    seed: int
    offered: int
    offered_per_s: float
    throughput_per_s: float
    goodput_per_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    queue_p99_ms: float
    counts: Mapping[str, int]
    breaker_trips: int
    faults_injected: int
    verdict: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index, "load": self.load,
            "policy": self.policy, "faults": self.faults,
            "seed": self.seed, "offered": self.offered,
            "offered_per_s": self.offered_per_s,
            "throughput_per_s": self.throughput_per_s,
            "goodput_per_s": self.goodput_per_s,
            "p50_ms": self.p50_ms, "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms, "max_ms": self.max_ms,
            "queue_p99_ms": self.queue_p99_ms,
            "counts": dict(self.counts),
            "breaker_trips": self.breaker_trips,
            "faults_injected": self.faults_injected,
            "verdict": self.verdict,
        }


def _run_cell(payload: Mapping[str, Any]) -> CellResult:
    """One grid cell, pure function of its payload (fork-pool safe)."""
    index = int(payload["index"])
    load = float(payload["load"])
    policy = str(payload["policy"])
    profile = str(payload["faults"])
    seed = derive_point_seed(int(payload["campaign_seed"]), index)
    workers = int(payload["workers"])
    service_s = float(payload["service_s"])
    capacity = float(payload["capacity_per_s"])
    injector = make_injector(profile, seed)
    engine, sql = _build_engine(int(payload["rows"]), faults=injector)
    traffic = OpenLoopTraffic(
        arrival_rate=capacity * load,
        duration_s=float(payload["duration_s"]),
        sessions=SESSIONS, seed=seed)
    config = make_cell_config(policy, service_s, workers=workers,
                              queue_limit=int(payload["queue_limit"]))
    report = ServingSimulation(
        engine, [sql], traffic, config, faults=injector,
        name=f"e24[{index}]").run()
    latency = report.latency
    queue = report.queue_wait
    return CellResult(
        index=index, load=load, policy=policy, faults=profile,
        seed=seed, offered=report.offered,
        offered_per_s=report.offered_rate_per_s,
        throughput_per_s=report.throughput_per_s,
        goodput_per_s=report.goodput_per_s,
        p50_ms=0.0 if latency is None else latency.p50 * 1000.0,
        p95_ms=0.0 if latency is None else latency.p95 * 1000.0,
        p99_ms=0.0 if latency is None else latency.p99 * 1000.0,
        max_ms=0.0 if latency is None else latency.maximum * 1000.0,
        queue_p99_ms=0.0 if queue is None else queue[99.0] * 1000.0,
        counts=dict(report.counts),
        breaker_trips=sum(
            1 for t in report.breaker_transitions
            if t.to_state == "open"),
        faults_injected=report.faults_injected,
        verdict=report.verdict())


@dataclass(frozen=True)
class E24Result:
    """The full grid plus its calibration context."""

    seed: int
    service_ms: float
    capacity_per_s: float
    workers: int
    duration_s: float
    loads: Tuple[float, ...]
    policies: Tuple[str, ...]
    profiles: Tuple[str, ...]
    cells: Tuple[CellResult, ...]

    def cell(self, load: float, policy: str,
             faults: str = "none") -> CellResult:
        for cell in self.cells:
            if (cell.load == load and cell.policy == policy
                    and cell.faults == faults):
                return cell
        raise ServeError(
            f"no E24 cell load={load} policy={policy!r} "
            f"faults={faults!r}")

    def curve(self, policy: str, faults: str = "none",
              metric: str = "throughput_per_s"
              ) -> Tuple[Tuple[float, float], ...]:
        """``(offered_per_s, metric)`` pairs in increasing load order."""
        points = sorted(
            (c for c in self.cells
             if c.policy == policy and c.faults == faults),
            key=lambda c: c.load)
        return tuple((c.offered_per_s, float(getattr(c, metric)))
                     for c in points)

    def knee_load(self, policy: str, faults: str = "none") -> float:
        """The first load factor where offered exceeds delivered by
        >10% — the saturation knee of that policy's curve."""
        for cell in sorted(
                (c for c in self.cells
                 if c.policy == policy and c.faults == faults),
                key=lambda c: c.load):
            if cell.throughput_per_s < 0.9 * cell.offered_per_s:
                return cell.load
        return float("inf")

    def format(self) -> str:
        lines = [
            "E24: throughput and tail latency vs offered load "
            f"({len(self.cells)} cells)",
            f"calibration: service {self.service_ms:.3f}ms -> capacity "
            f"{self.capacity_per_s:.0f} req/s with {self.workers} "
            f"worker(s); horizon {self.duration_s:g}s per cell",
            "",
            f"{'load':>5} {'policy':<11} {'faults':<6} "
            f"{'offered/s':>9} {'tput/s':>8} {'goodput/s':>9} "
            f"{'p50ms':>7} {'p99ms':>8} {'verdict':<10}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.load:>5.2f} {cell.policy:<11} "
                f"{cell.faults:<6} {cell.offered_per_s:>9.0f} "
                f"{cell.throughput_per_s:>8.0f} "
                f"{cell.goodput_per_s:>9.0f} {cell.p50_ms:>7.2f} "
                f"{cell.p99_ms:>8.2f} {cell.verdict:<10}")
        lines.append("")
        for policy in self.policies:
            knee = self.knee_load(policy)
            knee_str = "not reached" if knee == float("inf") \
                else f"{knee:g}x capacity"
            lines.append(f"saturation knee ({policy}): {knee_str}")
        return "\n".join(lines)

    def to_results(self) -> ResultSet:
        """The grid as a :class:`ResultSet` for ``repro.repeat``."""
        results = ResultSet(name="e24")
        for cell in self.cells:
            results.add(
                {"load": cell.load, "policy": cell.policy,
                 "faults": cell.faults, "verdict": cell.verdict},
                {"offered_per_s": cell.offered_per_s,
                 "throughput_per_s": cell.throughput_per_s,
                 "goodput_per_s": cell.goodput_per_s,
                 "p50_ms": cell.p50_ms, "p99_ms": cell.p99_ms,
                 "queue_p99_ms": cell.queue_p99_ms})
        return results

    def to_artifact(self) -> Dict[str, Any]:
        return {
            "experiment": "e24",
            "seed": self.seed,
            "service_ms": self.service_ms,
            "capacity_per_s": self.capacity_per_s,
            "workers": self.workers,
            "duration_s": self.duration_s,
            "loads": list(self.loads),
            "policies": list(self.policies),
            "fault_profiles": list(self.profiles),
            "knees": {policy: self.knee_load(policy)
                      for policy in self.policies
                      if self.knee_load(policy) != float("inf")},
            "cells": [cell.to_dict() for cell in self.cells],
        }


def run_e24(seed: int = 7, jobs: int = 1,
            loads: Sequence[float] = DEFAULT_LOADS,
            policies: Sequence[str] = DEFAULT_POLICIES,
            profiles: Sequence[str] = DEFAULT_FAULT_PROFILES,
            duration_s: float = DEFAULT_DURATION_S,
            rows: int = DEFAULT_ROWS,
            workers: int = DEFAULT_WORKERS,
            queue_limit: int = DEFAULT_QUEUE_LIMIT) -> E24Result:
    """Run the load x policy x faults grid.

    ``jobs > 1`` fans cells out over a fork pool; every cell is a pure
    function of ``(seed, cell index, grid parameters)``, merged back in
    index order, so the result is byte-identical for every ``jobs``
    value.
    """
    if jobs < 1:
        raise ServeError(f"jobs must be >= 1, got {jobs}")
    service_s, capacity = calibrate(rows, workers)
    payloads: List[Dict[str, Any]] = []
    grid = itertools.product(loads, policies, profiles)
    for index, (load, policy, profile) in enumerate(grid):
        payloads.append({
            "index": index, "load": float(load), "policy": str(policy),
            "faults": str(profile), "campaign_seed": seed,
            "workers": workers, "rows": rows,
            "duration_s": duration_s, "queue_limit": queue_limit,
            "service_s": service_s, "capacity_per_s": capacity,
        })
    if jobs == 1 or len(payloads) <= 1:
        cells = [_run_cell(payload) for payload in payloads]
    else:
        context = multiprocessing.get_context(DEFAULT_START_METHOD)
        with context.Pool(processes=min(jobs, len(payloads))) as pool:
            cells = pool.map(_run_cell, payloads)
    cells.sort(key=lambda cell: cell.index)
    return E24Result(
        seed=seed, service_ms=service_s * 1000.0,
        capacity_per_s=capacity, workers=workers,
        duration_s=duration_s, loads=tuple(float(l) for l in loads),
        policies=tuple(str(p) for p in policies),
        profiles=tuple(str(p) for p in profiles), cells=tuple(cells))


# ---------------------------------------------------------------------------
# Charts: the two canonical serving figures, linted against the chart
# guidelines (including the serving-specific rules they motivated).
# ---------------------------------------------------------------------------

def make_charts(result: E24Result) -> Dict[str, ChartSpec]:
    """Throughput-vs-load and tail-latency-vs-load figures."""
    throughput_series = []
    for policy in result.policies:
        curve = result.curve(policy, "none", "throughput_per_s")
        throughput_series.append(Series(
            label=f"{policy}", xs=tuple(x for x, __ in curve),
            ys=tuple(y for __, y in curve), unit="req/s",
            style=f"line-{policy}"))
    throughput = line_chart(
        "Throughput vs offered load by admission policy",
        throughput_series,
        "Offered load (req/s)", "Throughput (req/s)")

    latency_series = []
    for policy, metric, label in (
            ("reject", "p50_ms", "reject p50"),
            ("reject", "p99_ms", "reject p99"),
            ("none", "p99_ms", "unprotected p99")):
        curve = result.curve(policy, "none", metric)
        latency_series.append(Series(
            label=label, xs=tuple(x for x, __ in curve),
            ys=tuple(y for __, y in curve), unit="ms",
            style=f"line-{label}"))
    latency = line_chart(
        "Response time vs offered load",
        latency_series,
        "Offered load (req/s)", "Response time (ms)")
    return {"throughput": throughput, "latency": latency}


def lint_charts(result: E24Result) -> Tuple[Finding, ...]:
    findings: List[Finding] = []
    for chart in make_charts(result).values():
        findings.extend(lint_chart(chart))
    return tuple(findings)


def check_charts(result: E24Result) -> None:
    """Raise if the canonical figures violate any error-severity rule."""
    bad = errors_only(lint_charts(result))
    if bad:
        raise ServeError(
            "E24 charts violate the chart guidelines: "
            + "; ".join(f.format() for f in bad))


def export_artifacts(result: E24Result, outdir: str) -> List[str]:
    """Write the grid summary + curves JSON for the CI artifact."""
    os.makedirs(outdir, exist_ok=True)
    paths: List[str] = []
    grid_path = os.path.join(outdir, "e24_grid.json")
    with open(grid_path, "w", encoding="utf-8") as handle:
        json.dump(result.to_artifact(), handle, indent=2)
    paths.append(grid_path)
    curves = {
        "throughput": {policy: list(result.curve(policy))
                       for policy in result.policies},
        "goodput_under_faults": {
            policy: list(result.curve(policy, "burst",
                                      "goodput_per_s"))
            for policy in result.policies},
        "p99_ms": {policy: list(result.curve(policy, "none", "p99_ms"))
                   for policy in result.policies},
    }
    curves_path = os.path.join(outdir, "e24_curves.json")
    with open(curves_path, "w", encoding="utf-8") as handle:
        json.dump(curves, handle, indent=2)
    paths.append(curves_path)
    return paths


# ---------------------------------------------------------------------------
# repro.repeat entry point: PYTHONPATH=src python -m repro.repeat.run \
#     repro.experiments.e24_serving [--clients N] [--arrival-rate R]
# ---------------------------------------------------------------------------

def _single_run(properties: Properties) -> ResultSet:
    """One serving run from CLI knobs, via the fail-fast traffic check."""
    clients = properties.get_int("clients", 0) or None
    arrival = properties.get_float("arrival_rate", 0.0) or None
    think = properties.get_float("think_time", 0.0) or None
    loop = properties.get("loop", "")
    if not loop:
        loop = "open" if arrival is not None else "closed"
    duration = properties.get_float("duration", 1.0)
    seed = properties.get_int("seed", 7)
    traffic = make_traffic(loop, duration_s=duration, seed=seed,
                           clients=clients, arrival_rate=arrival,
                           think_time_s=think)
    service_s, capacity = calibrate()
    policy = properties.get("policy", "reject")
    injector = make_injector(properties.get("faults", "none"), seed)
    engine, sql = _build_engine(DEFAULT_ROWS, faults=injector)
    config = make_cell_config(policy, service_s)
    report = ServingSimulation(engine, [sql], traffic, config,
                               faults=injector, name="serve-cli").run()
    results = ResultSet(name="e24-serve")
    results.add(
        {"load": round(report.offered_rate_per_s / capacity, 4),
         "loop": loop, "policy": policy, "verdict": report.verdict()},
        {"offered_per_s": report.offered_rate_per_s,
         "throughput_per_s": report.throughput_per_s,
         "goodput_per_s": report.goodput_per_s,
         "p50_ms": 0.0 if report.latency is None
         else report.latency.p50 * 1000.0,
         "p99_ms": 0.0 if report.latency is None
         else report.latency.p99 * 1000.0,
         "queue_p99_ms": 0.0 if report.queue_wait is None
         else report.queue_wait[99.0] * 1000.0})
    return results


def _experiment(properties: Properties) -> ResultSet:
    if (properties.get("clients", "") or properties.get("arrival_rate", "")
            or properties.get("loop", "")):
        return _single_run(properties)
    jobs = properties.get_int("jobs", 1)
    duration = properties.get_float("duration", DEFAULT_DURATION_S)
    seed = properties.get_int("seed", 7)
    result = run_e24(seed=seed, jobs=jobs, duration_s=duration)
    check_charts(result)
    return result.to_results()


def build_suite(root: str = "suite_e24") -> ExperimentSuite:
    """The one-command suite wrapper around the serving grid."""
    suite = ExperimentSuite(root, name="e24")
    suite.add("e24-serving", _experiment,
              description="throughput/tail-latency vs offered load "
                          "under admission policies and fault bursts",
              expected_minutes=2.0, plot_x="load", plot_y="p99_ms")
    return suite

