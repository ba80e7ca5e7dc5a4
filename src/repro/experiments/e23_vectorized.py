"""E23 — vectorized vs per-row loop cost profiles.

The tutorial's profiling slides contrast MonetDB's column-at-a-time
primitives against MySQL's per-tuple interpretation; MiniDB charges
that contrast as cost profiles of one implementation.  This experiment
runs a 2^4 factorial over

- ``executor``: the ``loop`` (per-row constants) vs ``vectorized``
  (kernel constants) cost profile;
- ``selvec``: selection vectors off/on (deferred filter
  materialisation); with ``vectorized``, off selects the
  ``vectorized-eager`` profile, and ``loop`` never defers;
- ``cache``: the engine plan cache off/on;
- ``rows``: input size low/high,

measuring a join + aggregation micro-workload on a virtual clock, and
then applies the repo's own methodology: replicated effect estimation
(:func:`~repro.core.replication.analyze_replicated`), allocation of
variation (:func:`~repro.core.variation.allocate_variation_replicated`),
and a distribution-free confidence interval around the median
loop/vectorized speedup
(:func:`~repro.measurement.stats.median_confidence_interval`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.core import (
    FactorSpace,
    TwoLevelFactorialDesign,
    two_level,
)
from repro.core.replication import ReplicatedAnalysis, analyze_replicated
from repro.core.variation import VariationReport, allocate_variation_replicated
from repro.db import Engine, EngineConfig
from repro.measurement import (
    LAST_OF_THREE_HOT,
    ConfidenceInterval,
    NoiseModel,
    PickRule,
    VirtualClock,
    Workload,
    bootstrap_speedup_ci,
    median_confidence_interval,
    run_harness,
    speedup as speedup_estimate,
)
from repro.measurement.harness import HarnessReport
from repro.workloads.microbench import (
    aggregate_microbenchmark,
    join_microbenchmark,
    select_microbenchmark,
)

#: Default low/high input sizes of the ``rows`` factor.
DEFAULT_ROWS = (2_000, 16_000)

#: Seed of the micro-benchmark data; every design point queries the
#: same data, and only the noise stream follows the campaign seed.
DATA_SEED = 7


def make_space(rows_low: int = DEFAULT_ROWS[0],
               rows_high: int = DEFAULT_ROWS[1]) -> FactorSpace:
    """The 2^4 factor space of the experiment."""
    return FactorSpace([
        two_level("executor", "loop", "vectorized"),
        two_level("selvec", "off", "on"),
        two_level("cache", "off", "on"),
        two_level("rows", rows_low, rows_high),
    ])


class VectorizedWorkload(Workload):
    """Join + aggregation micro-queries under one design configuration.

    ``setup`` rebuilds both micro-benchmark engines on the campaign's
    shared clock with the configured executor/selection-vector/plan-
    cache settings; ``run`` executes both queries and adds a seeded
    multiplicative perturbation so replicated analysis has a nonzero
    experimental-error estimate (the simulated engine itself is exactly
    deterministic).
    """

    def __init__(self, clock: VirtualClock, noise: NoiseModel):
        self.clock = clock
        self.noise = noise
        self._engines: List[Engine] = []
        self._sqls: List[str] = []

    def setup(self, config: Mapping[str, Any]) -> None:
        executor = str(config["executor"])
        if executor == "vectorized" and config["selvec"] == "off":
            executor = "vectorized-eager"
        engine_config = EngineConfig(executor=executor,
                                     plan_cache=config["cache"] == "on")
        n = int(config["rows"])
        join = join_microbenchmark(n_left=n, n_right=max(1, n // 8),
                                   seed=DATA_SEED,
                                   config=engine_config)
        agg = aggregate_microbenchmark(n_rows=n, n_groups=64,
                                       seed=DATA_SEED,
                                       config=engine_config)
        # A selective scan so the selection-vector factor has a Filter
        # to act on (the join/aggregate queries carry no WHERE clause).
        select = select_microbenchmark(n_rows=n, selectivity=0.05,
                                       seed=DATA_SEED,
                                       config=engine_config)
        # The builders give each engine a private clock; re-wire them
        # onto the campaign clock so the harness measures them.
        self._engines = [
            Engine(m.engine.database, engine_config, clock=self.clock)
            for m in (join, agg, select)]
        self._sqls = [join.sql, agg.sql, select.sql]

    def run(self) -> None:
        before = self.clock.now
        for engine, sql in zip(self._engines, self._sqls):
            engine.execute(sql)
        elapsed = self.clock.now - before
        # Multiplicative measurement noise on top of the deterministic
        # simulated time; only ever advances (clocks cannot rewind).
        perturbed = self.noise.perturb(elapsed)
        if perturbed > elapsed:
            self.clock.advance(cpu_seconds=perturbed - elapsed)

    def make_cold(self) -> None:
        for engine in self._engines:
            engine.make_cold()


@dataclass(frozen=True)
class E23Result:
    """Everything the vectorization experiment produced."""

    report: HarnessReport
    analysis: ReplicatedAnalysis
    variation: VariationReport
    #: Median loop/vectorized speedup over matched design points
    #: (same selvec/cache/rows), with an order-statistic CI.
    speedup: ConfidenceInterval
    #: Per-configuration median speedups, for the README table.
    speedup_rows: Tuple[Tuple[str, float], ...]
    #: Touati-style restatement: per matched configuration, the
    #: percentile-bootstrap CI of the speedup under the ``median``
    #: protocol plus the ``min``-protocol point estimate.
    speedup_cis: Tuple[Tuple[str, ConfidenceInterval, float], ...] = ()

    def format(self) -> str:
        lines = [
            "E23: loop vs vectorized executor (2^4 factorial, "
            "join + aggregation microbenchmark)",
            "",
            self.analysis.format(),
            "",
            "allocation of variation:",
            self.variation.format(),
            "",
            "median loop/vectorized speedup per configuration:",
        ]
        for label, value in self.speedup_rows:
            lines.append(f"  {label:<32} {value:5.2f}x")
        lines.append(
            f"overall median speedup: {self.speedup.mean:.2f}x "
            f"[{self.speedup.low:.2f}, {self.speedup.high:.2f}] "
            f"at {self.speedup.confidence:.0%} confidence")
        if self.speedup_cis:
            lines.append("bootstrap speedup CIs (protocol=median; "
                         "min-of-k point estimate alongside):")
            for label, ci, min_point in self.speedup_cis:
                lines.append(
                    f"  {label:<32} median {ci.mean:5.2f}x "
                    f"[{ci.low:.2f}, {ci.high:.2f}]  min {min_point:5.2f}x")
        lines.append("significant effects: "
                     + (", ".join(self.analysis.significant_effects())
                        or "(none)"))
        return "\n".join(lines)


def _speedups(report: HarnessReport,
              design: TwoLevelFactorialDesign
              ) -> Tuple[List[float], List[Tuple[str, float]],
                         List[Tuple[str, ConfidenceInterval, float]]]:
    """Pair loop/vectorized points sharing the other factor levels."""
    by_key: Dict[Tuple[Any, ...], Dict[str, List[float]]] = {}
    for point in design.points():
        cfg = point.config
        key = (cfg["selvec"], cfg["cache"], cfg["rows"])
        outcome = report.raw.get(point.index)
        if outcome is None:
            continue
        by_key.setdefault(key, {})[cfg["executor"]] = outcome.reals
    ratios: List[float] = []
    rows: List[Tuple[str, float]] = []
    cis: List[Tuple[str, ConfidenceInterval, float]] = []
    for key in sorted(by_key, key=str):
        pair = by_key[key]
        if "loop" not in pair or "vectorized" not in pair:
            continue
        pair_ratios = [l / v for l, v in zip(pair["loop"],
                                             pair["vectorized"])]
        ratios.extend(pair_ratios)
        label = (f"selvec={key[0]} cache={key[1]} rows={key[2]}")
        pair_ratios.sort()
        rows.append((label, pair_ratios[len(pair_ratios) // 2]))
        # Touati-style restatement: a seeded percentile bootstrap of
        # the ratio of median-protocol estimates, plus the min-of-k
        # point estimate (the other defensible protocol).
        cis.append((label,
                    bootstrap_speedup_ci(pair["loop"],
                                         pair["vectorized"],
                                         protocol=PickRule.MEDIAN,
                                         seed=0),
                    speedup_estimate(pair["loop"], pair["vectorized"],
                                     protocol=PickRule.MIN)))
    return ratios, rows, cis


def run_e23(seed: int = 7, rows_low: int = DEFAULT_ROWS[0],
            rows_high: int = DEFAULT_ROWS[1], noise: float = 0.02,
            confidence: float = 0.90) -> E23Result:
    """Run the campaign and analyse it.

    One shared virtual clock and one seeded noise stream across the
    whole design, like the tutorial's single-machine campaigns.
    """
    design = TwoLevelFactorialDesign(make_space(rows_low, rows_high))
    clock = VirtualClock()
    workload = VectorizedWorkload(
        clock, NoiseModel(seed=seed, relative_std=noise))
    # The warm-up also fills the buffer pool and (when enabled) the
    # plan cache, so measured runs see steady-state behaviour.
    report = run_harness(design, workload, LAST_OF_THREE_HOT,
                         clock=clock, name="e23").require_complete()
    replicated_ms = [[r * 1000.0 for r in report.raw[point.index].reals]
                     for point in design.points()]
    analysis = analyze_replicated(design, replicated_ms,
                                  confidence=confidence)
    variation = allocate_variation_replicated(design, replicated_ms)
    ratios, rows, cis = _speedups(report, design)
    speedup = median_confidence_interval(ratios, confidence=confidence)
    return E23Result(report=report, analysis=analysis,
                     variation=variation, speedup=speedup,
                     speedup_rows=tuple(rows), speedup_cis=tuple(cis))
