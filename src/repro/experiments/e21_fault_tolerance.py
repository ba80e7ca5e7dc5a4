"""E21 — fault injection and the survival-rate vs retry-budget trade-off.

The tutorial's war stories (a cron job fires, a disk hiccups, the server
drops the client mid-campaign) motivate protocols that *survive and
report* failures.  This experiment makes that executable: a full 2^3
factorial campaign over MiniDB runs under injected
:class:`~repro.errors.ClientDisconnectError` faults (a seeded
:class:`~repro.faults.FaultPlan`, 20% per run by default) while the
resilient harness retries transient faults with exponential backoff in
*simulated* time and records whatever still fails as explicit
:class:`~repro.measurement.harness.FailedPoint`\\ s — never a silent
drop, never an unhandled traceback.

Sweeping the retry budget shows the trade-off: one attempt loses a large
fraction of the campaign, a few retries recover almost all of it, and
the methodology paragraph (:meth:`HarnessReport.documentation`)
faithfully reports the retries and the residual failures.  The final
panel demonstrates the analysis guard-rail: feeding a campaign with
failed points into :func:`~repro.core.analyze_replicated` is *refused*
with a diagnostic instead of silently averaging missing cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core import FactorSpace, TwoLevelFactorialDesign, two_level
from repro.core.replication import analyze_replicated
from repro.db import Client, Engine, EngineConfig, FileSink
from repro.errors import DesignError
from repro.faults import FaultInjector, FaultPlan
from repro.measurement import (
    ConfidenceInterval,
    PickRule,
    RetryPolicy,
    RunProtocol,
    State,
    VirtualClock,
    Workload,
    bootstrap_speedup_ci,
    speedup as speedup_estimate,
)
from repro.measurement.harness import HarnessReport, run_harness
from repro.parallel import CampaignSpec, CampaignStack, run_campaign
from repro.workloads import generate_tpch, tpch_query


def make_space() -> FactorSpace:
    return FactorSpace([
        two_level("buffer", "large", "small"),
        two_level("mode", "column", "tuple"),
        two_level("tuned", "yes", "no"),
    ])


class FaultyQueryWorkload(Workload):
    """One TPC-H query per run, on a faulty simulated stack.

    Every design point rebuilds the engine (new configuration) on a
    *shared* virtual clock and a *shared* fault injector, so the whole
    campaign lives on one timeline and one fault stream.
    """

    def __init__(self, database, sql: str, clock: VirtualClock,
                 faults: Optional[FaultInjector]):
        self.database = database
        self.sql = sql
        self.clock = clock
        self.faults = faults
        self._client: Optional[Client] = None

    def setup(self, config: Mapping[str, Any]) -> None:
        engine_config = EngineConfig(
            buffer_pages=4096 if config["buffer"] == "large" else 8,
            executor=("loop" if config["mode"] == "column" else "tuple"),
            tuned=(config["tuned"] == "yes"),
        )
        engine = Engine(self.database, engine_config, clock=self.clock,
                        faults=self.faults)
        self._client = Client(engine, FileSink())

    def run(self) -> None:
        self._client.run(self.sql)

    def make_cold(self) -> None:
        self._client.engine.make_cold()


#: The campaign's measurement procedure: hot runs, 3 measured
#: repetitions (the replications the error analysis needs).
CAMPAIGN_PROTOCOL = RunProtocol(state=State.HOT, repetitions=3,
                                pick=PickRule.LAST, warmups=1)


@dataclass(frozen=True)
class BudgetOutcome:
    """One campaign at one retry budget."""

    max_attempts: int
    measured: int
    failed: int
    retries: int
    faults_fired: int
    survival_rate: float
    documentation: str

    def format_row(self) -> str:
        return (f"  {self.max_attempts:>7}  {self.measured:>8}  "
                f"{self.failed:>6}  {self.retries:>7}  "
                f"{self.faults_fired:>6}  "
                f"{100.0 * self.survival_rate:>8.1f}%")


@dataclass(frozen=True)
class E21Result:
    """Survival-rate sweep plus the analysis guard-rail demonstration."""

    outcomes: Tuple[BudgetOutcome, ...]
    n_points: int
    fault_probability: float
    analysis_diagnostic: str
    #: Touati-style restatement from the largest-budget campaign's raw
    #: per-repetition timings: bootstrap CI of the tuned-over-untuned
    #: speedup (``median`` protocol) plus the ``min``-protocol point
    #: estimate.  ``None`` when either half of the design stayed
    #: unmeasured at every budget.
    tuned_speedup: Optional[ConfidenceInterval] = None
    tuned_speedup_min: float = 0.0

    def outcome(self, max_attempts: int) -> BudgetOutcome:
        for outcome in self.outcomes:
            if outcome.max_attempts == max_attempts:
                return outcome
        raise DesignError(
            f"no campaign was run with max_attempts={max_attempts}")

    def format(self) -> str:
        lines = [
            "E21: fault injection vs retry budget "
            f"(2^3 campaign, {self.n_points} points, "
            f"p={self.fault_probability:g} disconnect per run)",
            "",
            "  budget  measured  failed  retries  faults  survival",
        ]
        for outcome in self.outcomes:
            lines.append(outcome.format_row())
        best = self.outcomes[-1]
        lines += [
            "",
            "methodology paragraph (documented, per the tutorial):",
            f"  {best.documentation}",
            "",
            "analysis of a campaign with failed points is refused:",
            f"  {self.analysis_diagnostic}",
        ]
        if self.tuned_speedup is not None:
            ci = self.tuned_speedup
            lines += [
                "",
                f"tuned-over-untuned speedup (largest budget, pooled "
                f"repetitions): median {ci.mean:.2f}x "
                f"[{ci.low:.2f}, {ci.high:.2f}] at "
                f"{ci.confidence:.0%} (bootstrap), "
                f"min {self.tuned_speedup_min:.2f}x",
            ]
        return "\n".join(lines)


def _campaign(database, sql: str, plan: FaultPlan,
              max_attempts: int) -> Tuple[HarnessReport, FaultInjector]:
    clock = VirtualClock()
    injector = plan.injector()
    workload = FaultyQueryWorkload(database, sql, clock, injector)
    retry = RetryPolicy(max_attempts=max_attempts, backoff_base_s=0.05,
                        backoff_factor=2.0)
    report = run_harness(
        TwoLevelFactorialDesign(make_space()), workload,
        CAMPAIGN_PROTOCOL, clock=clock, retry=retry, on_error="record",
        name="e21")
    return report, injector


@lru_cache(maxsize=4)
def _tpch_database(sf: float, data_seed: int):
    """One TPC-H database per (sf, seed) per process.

    The campaign factory runs once per design point; caching the
    expensive data generation makes per-point stack rebuilding cheap
    inside every worker process.
    """
    return generate_tpch(sf=sf, seed=data_seed)


def build_e21_campaign(params: Mapping[str, Any],
                       seed: int) -> CampaignStack:
    """Campaign factory: one design point's faulty simulated stack.

    The sequential sweep in :func:`run_e21` shares one clock and one
    fault stream across the whole campaign; a *sharded* campaign cannot
    (workers own nothing in common), so here each point gets a private
    clock and a private :class:`FaultPlan` stream seeded from the
    per-point ``seed``.  ``params``: ``sf``, ``data_seed``, ``query``,
    ``fault_probability``, ``max_attempts``.
    """
    database = _tpch_database(float(params.get("sf", 0.002)),
                              int(params.get("data_seed", 42)))
    sql = tpch_query(int(params.get("query", 1)))
    probability = float(params.get("fault_probability", 0.2))
    clock = VirtualClock()
    injector = None
    if probability > 0.0:
        injector = FaultPlan.uniform(probability, seed=seed,
                                     sites=("client.run",)).injector()
    workload = FaultyQueryWorkload(database, sql, clock, injector)
    retry = RetryPolicy(max_attempts=int(params.get("max_attempts", 3)),
                        backoff_base_s=0.05, backoff_factor=2.0)
    return CampaignStack(design=TwoLevelFactorialDesign(make_space()),
                         workload=workload, protocol=CAMPAIGN_PROTOCOL,
                         clock=clock, retry=retry)


def _parallel_campaign(sf: float, data_seed: int, query: int,
                       fault_probability: float, max_attempts: int,
                       seed: int, jobs: int) -> HarnessReport:
    """One budget's campaign through the sharded executor."""
    spec = CampaignSpec(
        factory="repro.experiments.e21_fault_tolerance:"
                "build_e21_campaign",
        params={"sf": sf, "data_seed": data_seed, "query": query,
                "fault_probability": fault_probability,
                "max_attempts": max_attempts},
        seed=seed, name="e21")
    return run_campaign(spec, jobs=jobs, on_error="record")


def _analysis_diagnostic(report: HarnessReport) -> str:
    """Refusal message when failed points reach the error analysis."""
    design = TwoLevelFactorialDesign(make_space())
    r = CAMPAIGN_PROTOCOL.repetitions
    by_index = {point.index: point for point in design.points()}
    replicated = []
    for index in sorted(by_index):
        outcome = report.raw.get(index)
        if outcome is not None:
            replicated.append([real * 1000.0 for real in outcome.reals])
        else:
            replicated.append([math.nan] * r)
    try:
        analyze_replicated(design, replicated)
    except DesignError as exc:
        return str(exc)
    return ("(no failed points this run — every cell measured, "
            "analysis accepted)")


def _tuned_speedup(report: HarnessReport
                   ) -> Tuple[Optional[ConfidenceInterval], float]:
    """Tuned-over-untuned speedup CI from a campaign's raw timings.

    Pools the per-repetition reals of every measured point on each side
    of the ``tuned`` factor; a campaign whose failures wiped out one
    side entirely yields ``(None, 0.0)`` rather than a fake number.
    """
    design = TwoLevelFactorialDesign(make_space())
    pools: Dict[str, list] = {"yes": [], "no": []}
    for point in design.points():
        outcome = report.raw.get(point.index)
        if outcome is not None:
            pools[str(point.config["tuned"])].extend(outcome.reals)
    if not pools["yes"] or not pools["no"]:
        return None, 0.0
    ci = bootstrap_speedup_ci(pools["no"], pools["yes"],
                              protocol="median", seed=0)
    return ci, speedup_estimate(pools["no"], pools["yes"],
                                protocol="min")


def run_e21(sf: float = 0.002, seed: int = 42, query: int = 1,
            fault_probability: float = 0.2,
            budgets: Tuple[int, ...] = (1, 2, 3, 5),
            jobs: Optional[int] = None) -> E21Result:
    """Run the survival-rate sweep; see the module docstring.

    With ``jobs=None`` (the default) the campaigns run sequentially on
    one shared clock and fault stream — the original experiment.  With
    ``jobs=N`` each budget's campaign goes through the sharded executor
    (:mod:`repro.parallel`): per-point fault streams, so the numbers
    differ from the sequential path, but they are identical for *every*
    value of ``N`` — ``jobs=1`` reproduces ``jobs=8`` byte for byte.
    Every attempt a fault kills is exactly one injected fault, so the
    ``faults`` column is then ``total_attempts - measured``.
    """
    database = generate_tpch(sf=sf, seed=seed)
    sql = tpch_query(query)
    plan = FaultPlan.uniform(fault_probability, seed=seed,
                             sites=("client.run",))
    n_points = len(TwoLevelFactorialDesign(make_space()))
    outcomes = []
    diagnostic = ""
    for budget in budgets:
        if jobs is None:
            report, injector = _campaign(database, sql, plan, budget)
            faults_fired = injector.n_injected
        else:
            report = _parallel_campaign(
                sf, seed, query, fault_probability, budget,
                seed=seed, jobs=jobs)
            faults_fired = report.total_attempts - report.n_measured
        if report.n_points != n_points:
            raise DesignError(
                f"campaign lost points: {report.n_points} accounted, "
                f"{n_points} designed — a silent drop")
        outcomes.append(BudgetOutcome(
            max_attempts=budget,
            measured=report.n_measured,
            failed=report.n_failed,
            retries=report.total_retries,
            faults_fired=faults_fired,
            survival_rate=report.survival_rate,
            documentation=report.documentation()))
        if report.failures and not diagnostic:
            diagnostic = _analysis_diagnostic(report)
    if not diagnostic:
        diagnostic = ("(every campaign survived completely at these "
                      "budgets)")
    tuned_ci, tuned_min = _tuned_speedup(report)
    return E21Result(outcomes=tuple(outcomes), n_points=n_points,
                     fault_probability=fault_probability,
                     analysis_diagnostic=diagnostic,
                     tuned_speedup=tuned_ci,
                     tuned_speedup_min=tuned_min)
