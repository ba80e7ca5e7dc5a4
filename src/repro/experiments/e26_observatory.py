"""E26 — the performance observatory: feedback loops and honest gates.

Two campaigns close the observability loop this PR opens:

1. **Q-error feedback** — the E25 star-schema queries run once under
   the cost-based optimizer; every executed plan's per-operator actuals
   (:mod:`repro.db.actuals`) are harvested into correction hints
   (:mod:`repro.db.feedback`), the statistics version bumps (so the
   plan cache drops its now-stale entries), and the same queries run
   again.  The experiment records the per-round q-error distribution
   and checks the median *strictly decreases* after one round — the
   planner measurably learned from its own telemetry.

2. **Noise-aware gate demo** — two seeded synthetic benchmark
   trajectories put the raw ``+25%-on-the-median`` rule and the
   statistical gate (:func:`repro.measurement.speedup.
   significant_regression`) side by side:

   - *flat-but-noisy*: baseline and candidate drawn from the same
     high-variance distribution whose single medians happen to sit
     more than 25% apart.  The raw rule flakes (false red); the
     Mann-Whitney gate passes it.
   - *true regression*: the candidate is the baseline slowed by a real
     30%.  Both rules fail it — the statistical gate loses no power on
     genuine regressions.

Artifacts (``e26_feedback.json``, ``e26_gate_demo.json``) are exported
for CI; everything is seeded and runs on the virtual clock or seeded
generators, so reruns are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.db import feedback_round
from repro.experiments.e25_optimizer import (
    QErrorPoint,
    _cost_engine,
    collect_qerrors,
    qerror_quantile,
    star_database,
    star_queries,
)
from repro.measurement.speedup import SpeedupVerdict, significant_regression

DEFAULT_SEED = 7
DEFAULT_N_FACT = 20_000

#: The raw threshold the legacy gate applies to single medians.
RAW_TOLERANCE = 0.25


# ---------------------------------------------------------------------------
# Campaign 1: q-error feedback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QErrorRound:
    """The q-error distribution of one planning round."""

    round: int
    n_points: int
    median: float
    p90: float
    maximum: float
    stats_version: int
    n_hints: int

    def format(self) -> str:
        return (f"round {self.round}: median q-error {self.median:.3f}, "
                f"p90 {self.p90:.3f}, max {self.maximum:.3f} "
                f"({self.n_points} operators, {self.n_hints} hints, "
                f"stats v{self.stats_version})")


def _summarize_round(points: Tuple[QErrorPoint, ...], round_no: int,
                     stats_version: int, n_hints: int) -> QErrorRound:
    return QErrorRound(
        round=round_no, n_points=len(points),
        median=qerror_quantile(points, 0.5),
        p90=qerror_quantile(points, 0.9),
        maximum=max(p.q_error for p in points),
        stats_version=stats_version, n_hints=n_hints)


def run_feedback_campaign(seed: int = DEFAULT_SEED,
                          n_fact: int = DEFAULT_N_FACT,
                          executor: str = "vectorized"
                          ) -> Tuple[QErrorRound, QErrorRound]:
    """Measure q-errors before and after one feedback round.

    Round 0 plans from ANALYZE statistics alone; the feedback round
    then records observed scan and join cardinalities, which bumps the
    statistics version and invalidates the cached plans, so round 1
    re-optimises with corrected estimates.
    """
    db = star_database(seed=seed, n_fact=n_fact)
    engine, __ = _cost_engine(db, executor)
    before = collect_qerrors(engine=engine)
    round0 = _summarize_round(before, 0, engine.table_stats.version,
                              engine.table_stats.n_hints)
    feedback_round(engine, [q.sql for q in star_queries()])
    after = collect_qerrors(engine=engine)
    round1 = _summarize_round(after, 1, engine.table_stats.version,
                              engine.table_stats.n_hints)
    return round0, round1


# ---------------------------------------------------------------------------
# Campaign 2: noise-aware gate demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateScenario:
    """One baseline/candidate pair judged by both gate rules."""

    name: str
    median_ratio: float          #: candidate median / baseline median
    raw_fails: bool              #: the +25%-on-the-median rule
    stat_verdict: SpeedupVerdict  #: the noise-aware rule

    def format(self) -> str:
        raw = "FAIL" if self.raw_fails else "pass"
        stat = "FAIL" if self.stat_verdict.regression else "pass"
        return (f"{self.name}: median {self.median_ratio:+.1%} — "
                f"raw rule {raw}, stat rule {stat} "
                f"(p={self.stat_verdict.p_value:.4f})")


def _raw_rule_fails(baseline: List[float], candidate: List[float],
                    tolerance: float = RAW_TOLERANCE) -> bool:
    base = sorted(baseline)[len(baseline) // 2]
    cand = sorted(candidate)[len(candidate) // 2]
    return cand / base > 1.0 + tolerance


def _judge(name: str, baseline: List[float],
           candidate: List[float]) -> GateScenario:
    base_med = sorted(baseline)[len(baseline) // 2]
    cand_med = sorted(candidate)[len(candidate) // 2]
    return GateScenario(
        name=name, median_ratio=cand_med / base_med - 1.0,
        raw_fails=_raw_rule_fails(baseline, candidate),
        stat_verdict=significant_regression(baseline, candidate))


def flat_noisy_samples(seed: int = DEFAULT_SEED
                       ) -> Tuple[List[float], List[float]]:
    """Two draws from one noisy distribution whose medians happen to
    sit more than 25% apart — the raw rule's classic false red.

    The seed is searched deterministically from *seed* until the
    scenario holds, so the construction is robust to generator
    details.
    """
    for offset in range(1000):
        rng = np.random.default_rng(seed + offset)
        base = np.exp(rng.normal(np.log(0.010), 0.6, 7)).tolist()
        cand = np.exp(rng.normal(np.log(0.010), 0.6, 7)).tolist()
        scenario = _judge("probe", base, cand)
        if scenario.raw_fails and not scenario.stat_verdict.regression:
            return base, cand
    raise AssertionError("no flat-but-noisy pair found (unreachable)")


def true_regression_samples(seed: int = DEFAULT_SEED,
                            slowdown: float = 0.30
                            ) -> Tuple[List[float], List[float]]:
    """A genuine *slowdown* regression over low-variance samples."""
    rng = np.random.default_rng(seed)
    base = (0.010 + rng.normal(0.0, 0.0005, 25)).clip(1e-4).tolist()
    cand = [v * (1.0 + slowdown) for v in base]
    return base, cand


def run_gate_demo(seed: int = DEFAULT_SEED) -> Tuple[GateScenario, ...]:
    flat_base, flat_cand = flat_noisy_samples(seed)
    reg_base, reg_cand = true_regression_samples(seed)
    return (
        _judge("flat-but-noisy", flat_base, flat_cand),
        _judge("true-30pct-regression", reg_base, reg_cand),
    )


# ---------------------------------------------------------------------------
# The experiment proper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E26Result:
    """Everything the observatory experiment produced."""

    rounds: Tuple[QErrorRound, QErrorRound]
    scenarios: Tuple[GateScenario, ...]

    @property
    def median_improved(self) -> bool:
        return self.rounds[1].median < self.rounds[0].median

    def format(self) -> str:
        lines = ["E26 — performance observatory", "",
                 "q-error feedback (star schema, cost optimizer):"]
        lines.extend("  " + r.format() for r in self.rounds)
        verdict = ("strictly decreased"
                   if self.median_improved else "DID NOT decrease")
        lines.append(f"  median q-error {verdict} after one round")
        lines.append("")
        lines.append("gate demo (raw +25% rule vs noise-aware rule):")
        lines.extend("  " + s.format() for s in self.scenarios)
        return "\n".join(lines)


def run_e26(seed: int = DEFAULT_SEED, n_fact: int = DEFAULT_N_FACT,
            executor: str = "vectorized") -> E26Result:
    rounds = run_feedback_campaign(seed=seed, n_fact=n_fact,
                                   executor=executor)
    scenarios = run_gate_demo(seed=seed)
    return E26Result(rounds=rounds, scenarios=scenarios)


def export_artifacts(result: E26Result, out_dir: str) -> List[str]:
    """Write the CI artifacts; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    feedback_path = os.path.join(out_dir, "e26_feedback.json")
    with open(feedback_path, "w", encoding="utf-8") as handle:
        json.dump({
            "rounds": [{
                "round": r.round, "n_points": r.n_points,
                "median_qerror": r.median, "p90_qerror": r.p90,
                "max_qerror": r.maximum,
                "stats_version": r.stats_version,
                "n_hints": r.n_hints,
            } for r in result.rounds],
            "median_improved": result.median_improved,
        }, handle, indent=2, sort_keys=True)
    gate_path = os.path.join(out_dir, "e26_gate_demo.json")
    with open(gate_path, "w", encoding="utf-8") as handle:
        json.dump([{
            "scenario": s.name,
            "median_ratio": s.median_ratio,
            "raw_rule_fails": s.raw_fails,
            "stat_rule_fails": s.stat_verdict.regression,
            "p_value": s.stat_verdict.p_value,
            "speedup": s.stat_verdict.speedup,
            "ci_low": s.stat_verdict.ci.low,
            "ci_high": s.stat_verdict.ci.high,
        } for s in result.scenarios], handle, indent=2, sort_keys=True)
    return [feedback_path, gate_path]

