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
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core import FactorSpace, TwoLevelFactorialDesign, two_level
from repro.core.replication import analyze_replicated
from repro.db import Client, Engine, EngineConfig, FileSink
from repro.errors import DesignError
from repro.faults import FaultInjector, FaultPlan
from repro.measurement import (
    LAST_OF_THREE_HOT,
    ConfidenceInterval,
    PickRule,
    RetryPolicy,
    VirtualClock,
    Workload,
    bootstrap_speedup_ci,
    speedup as speedup_estimate,
)
from repro.measurement.harness import HarnessReport, run_harness
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
        LAST_OF_THREE_HOT, clock=clock, retry=retry, on_error="record",
        name="e21")
    return report, injector


def _analysis_diagnostic(report: HarnessReport) -> str:
    """Refusal message when failed points reach the error analysis."""
    design = TwoLevelFactorialDesign(make_space())
    r = LAST_OF_THREE_HOT.repetitions
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
                              protocol=PickRule.MEDIAN, seed=0)
    return ci, speedup_estimate(pools["no"], pools["yes"],
                                protocol=PickRule.MIN)


def run_e21(sf: float = 0.002, seed: int = 42, query: int = 1,
            fault_probability: float = 0.2,
            budgets: Tuple[int, ...] = (1, 2, 3, 5)) -> E21Result:
    """Run the survival-rate sweep; see the module docstring.

    Each budget's campaign shares one clock and one fault stream
    across its design points, and every budget replays the same seeded
    fault plan.
    """
    database = generate_tpch(sf=sf, seed=seed)
    sql = tpch_query(query)
    plan = FaultPlan.uniform(fault_probability, seed=seed,
                             sites=("client.run",))
    n_points = len(TwoLevelFactorialDesign(make_space()))
    outcomes = []
    diagnostic = ""
    for budget in budgets:
        report, injector = _campaign(database, sql, plan, budget)
        if report.n_points != n_points:
            raise DesignError(
                f"campaign lost points: {report.n_points} accounted, "
                f"{n_points} designed — a silent drop")
        outcomes.append(BudgetOutcome(
            max_attempts=budget,
            measured=report.n_measured,
            failed=report.n_failed,
            retries=report.total_retries,
            faults_fired=injector.n_injected,
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
