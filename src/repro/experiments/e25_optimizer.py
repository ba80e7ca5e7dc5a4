"""E25 — cost-based optimizer v2: plan quality and estimate accuracy.

The tutorial's checklist asks an evaluation to separate *policy* wins
from *mechanism* wins; PR 6 adds a cost-based optimizer (statistics,
calibrated operator costs, join-order enumeration) and this experiment
measures what the policy is worth.  Three questions, three instruments:

1. **Speedup** — a 2^3 factorial over ``optimizer`` (``heuristic`` v1
   vs ``cost`` v2), ``executor`` (loop vs vectorized) and ``rows``
   (low/high fact-table size) on a star-schema workload whose textual
   join order is deliberately bad.  Replicated effect estimation plus a
   distribution-free CI around the median heuristic/cost speedup
   (:func:`~repro.measurement.stats.median_confidence_interval`).
2. **Plan quality** — :func:`explore_plan_space` executes *every*
   enumerated left-deep join order (forced through ``JOIN_ORDER``
   hints) on the virtual clock and locates the optimizer's unhinted
   choice inside that spectrum: ``chosen / best`` is the optimality
   ratio the CI gate enforces (<= 1.5x median across queries).
3. **Estimate accuracy** — :func:`collect_qerrors` compares every plan
   node's ``est_rows`` annotation against the executed ``rows_out``;
   the q-error scatter (max(est/act, act/est)) is exported as a JSON
   artifact for CI.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import (
    FactorSpace,
    TwoLevelFactorialDesign,
    two_level,
)
from repro.core.replication import ReplicatedAnalysis, analyze_replicated
from repro.core.variation import VariationReport, allocate_variation_replicated
from repro.db import (
    CostModel,
    DataType,
    Database,
    Engine,
    EngineConfig,
    Table,
    calibrate_cost_model,
    enumerate_join_orders,
    parse_select,
)
from repro.measurement import (
    ConfidenceInterval,
    NoiseModel,
    PickRule,
    RunProtocol,
    State,
    VirtualClock,
    Workload,
    median_confidence_interval,
    run_harness,
)
from repro.measurement.harness import HarnessReport

#: Measurement protocol: hot system, 3 measured repetitions per point.
#: The warmup fills the buffer pool and the plan cache, so measured
#: runs compare executed *plan quality*, not optimization overhead.
E25_PROTOCOL = RunProtocol(state=State.HOT, repetitions=3,
                           pick=PickRule.LAST, warmups=1)

#: Default low/high fact-table sizes of the ``rows`` factor.
DEFAULT_ROWS = (2_000, 8_000)

#: Seed of the star-schema data; every design point queries the same
#: data, and only the noise stream follows the campaign seed.
DATA_SEED = 7

#: Dimension-table sizes (fixed across the ``rows`` factor).
N_CUST = 200
N_PART = 40
N_REGIONS = 50
#: ``part`` key multiplicity (a denormalised part-supplier dimension):
#: joining ``fact`` to it *before* the selective customer filter
#: multiplies the intermediate by this factor, which is what makes the
#: textual join order genuinely bad rather than merely indifferent.
PART_DUP = 6

_CALIBRATED: Optional[CostModel] = None


def calibrated_model() -> CostModel:
    """The calibrated operator cost model, fitted once per process.

    Calibration replays a seeded training workload and fits the
    startup/per-row/per-byte coefficients from span timings; it is
    deterministic, so caching it changes nothing but wall-clock.
    """
    global _CALIBRATED
    if _CALIBRATED is None:
        _CALIBRATED = calibrate_cost_model()
    return _CALIBRATED


def star_database(seed: int = 7, n_fact: int = DEFAULT_ROWS[1],
                  n_cust: int = N_CUST, n_part: int = N_PART) -> Database:
    """A star schema with a selective customer dimension.

    ``cust.region`` has :data:`N_REGIONS` distinct values over
    ``n_cust`` customers, so an equality filter keeps ~2% of the fact
    table; ``part`` carries :data:`PART_DUP` rows per ``pkey``, so the
    join order that filters through ``cust`` first wins big while the
    textual order pays a :data:`PART_DUP`-fold expanded intermediate.
    """
    rng = np.random.default_rng(seed)
    db = Database(name=f"e25_star_{seed}_{n_fact}")
    db.create_table(Table.from_columns(
        "fact",
        [("ckey", DataType.INT64), ("pkey", DataType.INT64),
         ("amount", DataType.FLOAT64)],
        {"ckey": rng.integers(0, n_cust, n_fact),
         "pkey": rng.integers(0, n_part, n_fact),
         "amount": rng.random(n_fact) * 100.0}))
    db.create_table(Table.from_columns(
        "cust",
        [("ckey", DataType.INT64), ("region", DataType.INT64)],
        {"ckey": np.arange(n_cust, dtype=np.int64),
         "region": rng.integers(0, N_REGIONS, n_cust)}))
    db.create_table(Table.from_columns(
        "part",
        [("pkey", DataType.INT64), ("cat", DataType.INT64)],
        {"pkey": np.repeat(np.arange(n_part, dtype=np.int64), PART_DUP),
         "cat": rng.integers(0, 4, n_part * PART_DUP)}))
    return db


@dataclass(frozen=True)
class StarQuery:
    """One star-join query of the E25 workload."""

    name: str
    sql: str


def star_queries() -> Tuple[StarQuery, ...]:
    """The measured queries.

    Every query names the fact table first and the selective customer
    dimension *last*, so the v1 heuristic's textual join order pays a
    full-width ``fact x part`` intermediate before the region filter
    bites — the plan the cost-based optimizer should refuse to pick.
    """
    base = ("FROM fact JOIN part ON pkey = pkey "
            "JOIN cust ON ckey = ckey")
    return (
        StarQuery("region_eq", "SELECT region, SUM(amount) AS s "
                  f"{base} WHERE region = 7 "
                  "GROUP BY region ORDER BY region"),
        StarQuery("region_cat", "SELECT region, SUM(amount) AS s "
                  f"{base} WHERE region = 11 AND cat < 3 "
                  "GROUP BY region ORDER BY region"),
        StarQuery("region_range", "SELECT cat, COUNT(*) AS n "
                  f"{base} WHERE region < 3 "
                  "GROUP BY cat ORDER BY cat"),
        StarQuery("region_amount", "SELECT region, MAX(amount) AS m "
                  f"{base} WHERE region = 23 AND amount < 80.0 "
                  "GROUP BY region ORDER BY region"),
    )


def make_space(rows_low: int = DEFAULT_ROWS[0],
               rows_high: int = DEFAULT_ROWS[1]) -> FactorSpace:
    """The 2^3 factor space of the experiment."""
    return FactorSpace([
        two_level("optimizer", "heuristic", "cost"),
        two_level("executor", "loop", "vectorized"),
        two_level("rows", rows_low, rows_high),
    ])


class OptimizerWorkload(Workload):
    """The star-join queries under one design configuration.

    ``setup`` rebuilds the engine with the configured optimizer and
    executor and (for the cost-based level) runs ANALYZE, so measured
    runs see fresh statistics; ``run`` executes all queries plus a
    seeded multiplicative perturbation so replicated analysis has a
    nonzero experimental-error estimate.
    """

    def __init__(self, clock: VirtualClock, noise: NoiseModel):
        self.clock = clock
        self.noise = noise
        self._engine: Optional[Engine] = None
        self._sqls: List[str] = []

    def setup(self, config: Mapping[str, Any]) -> None:
        cost_based = config["optimizer"] == "cost"
        engine_config = EngineConfig(
            executor=str(config["executor"]),
            optimizer=str(config["optimizer"]),
            cost_model=calibrated_model() if cost_based else None,
            plan_cache=True)
        db = star_database(seed=DATA_SEED, n_fact=int(config["rows"]))
        self._engine = Engine(db, engine_config, clock=self.clock)
        if cost_based:
            self._engine.analyze()  # unmeasured: setup, not run
        self._sqls = [query.sql for query in star_queries()]

    def run(self) -> None:
        before = self.clock.now
        for sql in self._sqls:
            self._engine.execute(sql)
        elapsed = self.clock.now - before
        # Multiplicative measurement noise on top of the deterministic
        # simulated time; only ever advances (clocks cannot rewind).
        perturbed = self.noise.perturb(elapsed)
        if perturbed > elapsed:
            self.clock.advance(cpu_seconds=perturbed - elapsed)

    def make_cold(self) -> None:
        if self._engine is not None:
            self._engine.make_cold()


# ---------------------------------------------------------------------------
# Plan-space exploration: every enumerated order, executed.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderTiming:
    """One enumerated join order's measured (simulated) hot run."""

    order: Tuple[str, ...]
    simulated_s: float
    chosen: bool


@dataclass(frozen=True)
class PlanSpace:
    """One query's full enumerated plan spectrum.

    ``naive_s`` is the v1 heuristic (textual order) baseline;
    ``chosen_s`` is the unhinted cost-based optimizer's plan; the
    ``orders`` spectrum comes from forcing every connected left-deep
    order through ``JOIN_ORDER`` hints.
    """

    query: str
    naive_s: float
    chosen_s: float
    chosen_order: Tuple[str, ...]
    orders: Tuple[OrderTiming, ...]

    @property
    def best_s(self) -> float:
        return min(t.simulated_s for t in self.orders)

    @property
    def worst_s(self) -> float:
        return max(t.simulated_s for t in self.orders)

    @property
    def quality(self) -> float:
        """Optimality ratio: chosen / best enumerated (1.0 = optimal)."""
        return self.chosen_s / self.best_s

    @property
    def speedup(self) -> float:
        """Naive heuristic time over the optimizer's chosen time."""
        return self.naive_s / self.chosen_s

    @property
    def worst_avoidance(self) -> float:
        """Worst enumerated time over the optimizer's chosen time."""
        return self.worst_s / self.chosen_s


def _hot_seconds(engine: Engine, clock: VirtualClock, sql: str) -> float:
    """Simulated seconds of one hot execution (warm run first)."""
    engine.execute(sql)  # warm: buffer pool + plan cache
    before = clock.now
    engine.execute(sql)
    return clock.now - before


def _cost_engine(db: Database, executor: str = "vectorized"
                 ) -> Tuple[Engine, VirtualClock]:
    clock = VirtualClock()
    engine = Engine(db, EngineConfig(executor=executor, optimizer="cost",
                                     cost_model=calibrated_model(),
                                     plan_cache=True), clock=clock)
    engine.analyze()
    return engine, clock


def explore_plan_space(seed: int = 7, n_fact: int = DEFAULT_ROWS[1],
                       executor: str = "vectorized"
                       ) -> Tuple[PlanSpace, ...]:
    """Execute every enumerated join order for every E25 query.

    Each order (and each baseline) runs on a private engine + virtual
    clock, so the measurements are exactly deterministic and mutually
    independent — the simulated analogue of one-factor-at-a-time.
    """
    spaces = []
    for query in star_queries():
        db = star_database(seed=seed, n_fact=n_fact)
        statement = parse_select(query.sql)
        orders = enumerate_join_orders(statement, db)

        naive_clock = VirtualClock()
        naive_engine = Engine(
            db, EngineConfig(executor=executor, optimizer="heuristic",
                             plan_cache=True), clock=naive_clock)
        naive_s = _hot_seconds(naive_engine, naive_clock, query.sql)

        chosen_engine, chosen_clock = _cost_engine(db, executor)
        plan = chosen_engine.plan(query.sql)
        chosen_order = tuple(plan.optimizer_info["join_order"])
        chosen_s = _hot_seconds(chosen_engine, chosen_clock, query.sql)

        timings = []
        for order in orders:
            engine, clock = _cost_engine(db, executor)
            hinted = ("/*+ JOIN_ORDER(" + " ".join(order) + ") */ "
                      + query.sql)
            timings.append(OrderTiming(
                order=tuple(order),
                simulated_s=_hot_seconds(engine, clock, hinted),
                chosen=tuple(order) == chosen_order))
        spaces.append(PlanSpace(query=query.name, naive_s=naive_s,
                                chosen_s=chosen_s,
                                chosen_order=chosen_order,
                                orders=tuple(timings)))
    return tuple(spaces)


# ---------------------------------------------------------------------------
# Estimate accuracy: est_rows vs executed rows_out, per plan node.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QErrorPoint:
    """One plan node's estimate-vs-actual comparison."""

    query: str
    operator: str
    est_rows: float
    actual_rows: int
    q_error: float


def collect_qerrors(seed: int = 7, n_fact: int = DEFAULT_ROWS[1],
                    executor: str = "vectorized",
                    engine: Optional[Engine] = None
                    ) -> Tuple[QErrorPoint, ...]:
    """Execute every E25 query cost-based and collect per-node q-errors.

    Reads the per-operator actuals the engine records on every
    execution (:meth:`Engine.last_actuals`) instead of re-walking live
    plan objects — the estimate is frozen at execution time, so a
    cached plan reports exactly what the planner believed.  Pass
    *engine* to measure an existing engine (e.g. after a feedback
    round, E26); otherwise a fresh star-schema engine is built.
    """
    if engine is None:
        db = star_database(seed=seed, n_fact=n_fact)
        engine, __ = _cost_engine(db, executor)
    points: List[QErrorPoint] = []
    for query in star_queries():
        engine.execute(query.sql)
        actuals = engine.last_actuals()
        for node in actuals.walk():
            points.append(QErrorPoint(
                query=query.name, operator=node.operator,
                est_rows=node.est_rows, actual_rows=node.actual_rows,
                q_error=node.q_error))
    return tuple(points)


def qerror_quantile(points: Tuple[QErrorPoint, ...],
                    fraction: float) -> float:
    """Order-statistic quantile of the q-error distribution."""
    if not points:
        return math.nan
    ordered = sorted(p.q_error for p in points)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


# ---------------------------------------------------------------------------
# The experiment proper.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E25Result:
    """Everything the optimizer experiment produced."""

    report: HarnessReport
    analysis: ReplicatedAnalysis
    variation: VariationReport
    #: Median heuristic/cost speedup over matched design points (same
    #: executor/rows), with an order-statistic CI.
    speedup: ConfidenceInterval
    #: Per-configuration median speedups, for the README table.
    speedup_rows: Tuple[Tuple[str, float], ...]
    #: The executed plan spectrum of every query (at ``rows`` high).
    plan_spaces: Tuple[PlanSpace, ...]
    #: The est-vs-actual scatter of every cost-planned plan node.
    qerrors: Tuple[QErrorPoint, ...]

    @property
    def median_quality(self) -> float:
        """Median chosen/best optimality ratio across queries."""
        ordered = sorted(s.quality for s in self.plan_spaces)
        return ordered[len(ordered) // 2]

    def format(self) -> str:
        lines = [
            "E25: cost-based optimizer v2 (2^3 factorial, star-join "
            "workload with adversarial textual order)",
            "",
            self.analysis.format(),
            "",
            "allocation of variation:",
            self.variation.format(),
            "",
            "median heuristic/cost speedup per configuration:",
        ]
        for label, value in self.speedup_rows:
            lines.append(f"  {label:<32} {value:5.2f}x")
        lines.append(
            f"overall median speedup: {self.speedup.mean:.2f}x "
            f"[{self.speedup.low:.2f}, {self.speedup.high:.2f}] "
            f"at {self.speedup.confidence:.0%} confidence")
        lines.append("")
        lines.append("enumerated plan space (simulated, hot):")
        for space in self.plan_spaces:
            lines.append(
                f"  {space.query:<14} orders={len(space.orders)} "
                f"naive {1e3 * space.naive_s:8.3f}ms "
                f"chosen {1e3 * space.chosen_s:8.3f}ms "
                f"best {1e3 * space.best_s:8.3f}ms "
                f"worst {1e3 * space.worst_s:8.3f}ms "
                f"quality {space.quality:.2f}x "
                f"speedup {space.speedup:.2f}x")
        lines.append(f"median optimality ratio: "
                     f"{self.median_quality:.2f}x (gate: <= 1.50x)")
        lines.append(
            f"q-error: median {qerror_quantile(self.qerrors, 0.5):.2f} "
            f"p90 {qerror_quantile(self.qerrors, 0.9):.2f} "
            f"max {qerror_quantile(self.qerrors, 1.0):.2f} "
            f"over {len(self.qerrors)} plan nodes")
        lines.append("significant effects: "
                     + (", ".join(self.analysis.significant_effects())
                        or "(none)"))
        return "\n".join(lines)

    def to_artifact(self) -> Dict[str, Any]:
        """JSON-able summary + scatter, for the CI artifact."""
        return {
            "experiment": "e25",
            "speedup": {
                "median": self.speedup.mean,
                "low": self.speedup.low,
                "high": self.speedup.high,
                "confidence": self.speedup.confidence,
            },
            "median_quality": self.median_quality,
            "plan_spaces": [
                {
                    "query": s.query,
                    "naive_s": s.naive_s,
                    "chosen_s": s.chosen_s,
                    "chosen_order": list(s.chosen_order),
                    "best_s": s.best_s,
                    "worst_s": s.worst_s,
                    "quality": s.quality,
                    "speedup": s.speedup,
                    "orders": [
                        {"order": list(t.order),
                         "simulated_s": t.simulated_s,
                         "chosen": t.chosen}
                        for t in s.orders
                    ],
                }
                for s in self.plan_spaces
            ],
            "qerror_scatter": [
                {"query": p.query, "operator": p.operator,
                 "est_rows": p.est_rows, "actual_rows": p.actual_rows,
                 "q_error": p.q_error}
                for p in self.qerrors
            ],
        }


def _speedups(report: HarnessReport,
              design: TwoLevelFactorialDesign
              ) -> Tuple[List[float], List[Tuple[str, float]]]:
    """Pair heuristic/cost points sharing the other factor levels."""
    by_key: Dict[Tuple[Any, ...], Dict[str, List[float]]] = {}
    for point in design.points():
        cfg = point.config
        key = (cfg["executor"], cfg["rows"])
        outcome = report.raw.get(point.index)
        if outcome is None:
            continue
        by_key.setdefault(key, {})[cfg["optimizer"]] = outcome.reals
    ratios: List[float] = []
    rows: List[Tuple[str, float]] = []
    for key in sorted(by_key, key=str):
        pair = by_key[key]
        if "heuristic" not in pair or "cost" not in pair:
            continue
        pair_ratios = [h / c for h, c in zip(pair["heuristic"],
                                             pair["cost"])]
        ratios.extend(pair_ratios)
        label = f"executor={key[0]} rows={key[1]}"
        pair_ratios.sort()
        rows.append((label, pair_ratios[len(pair_ratios) // 2]))
    return ratios, rows


def run_e25(seed: int = 7, rows_low: int = DEFAULT_ROWS[0],
            rows_high: int = DEFAULT_ROWS[1], noise: float = 0.02,
            confidence: float = 0.90) -> E25Result:
    """Run the campaign and analyse it.

    One shared virtual clock and one seeded noise stream across the
    whole design; the plan-space and q-error instruments run on their
    own private clocks (they are exactly deterministic).
    """
    design = TwoLevelFactorialDesign(make_space(rows_low, rows_high))
    clock = VirtualClock()
    workload = OptimizerWorkload(
        clock, NoiseModel(seed=seed, relative_std=noise))
    report = run_harness(design, workload, E25_PROTOCOL, clock=clock,
                         name="e25").require_complete()
    replicated_ms = [[r * 1000.0 for r in report.raw[point.index].reals]
                     for point in design.points()]
    analysis = analyze_replicated(design, replicated_ms,
                                  confidence=confidence)
    variation = allocate_variation_replicated(design, replicated_ms)
    ratios, rows = _speedups(report, design)
    speedup = median_confidence_interval(ratios, confidence=confidence)
    return E25Result(
        report=report, analysis=analysis, variation=variation,
        speedup=speedup, speedup_rows=tuple(rows),
        plan_spaces=explore_plan_space(seed=DATA_SEED, n_fact=rows_high),
        qerrors=collect_qerrors(seed=DATA_SEED, n_fact=rows_high))


def export_artifacts(result: E25Result, outdir: str) -> List[str]:
    """Write the q-error scatter + summary JSON for the CI artifact."""
    os.makedirs(outdir, exist_ok=True)
    artifact = result.to_artifact()
    paths = []
    scatter = os.path.join(outdir, "e25_qerror_scatter.json")
    with open(scatter, "w", encoding="utf-8") as handle:
        json.dump(artifact["qerror_scatter"], handle, indent=2)
    paths.append(scatter)
    summary = os.path.join(outdir, "e25_summary.json")
    with open(summary, "w", encoding="utf-8") as handle:
        json.dump({k: v for k, v in artifact.items()
                   if k != "qerror_scatter"}, handle, indent=2)
    paths.append(summary)
    return paths

