"""E18 — "apples and oranges": unfair comparisons (slides 37-45).

Two war stories made executable:

1. the CWI story — identical algorithms, one compiled DBG, one OPT:
   MiniDB under a DBG build loses by up to ~2x on CPU time, and the
   fairness checker flags the build mismatch;
2. the tuned-prototype-vs-default-system game: a hand-tuned MiniDB
   (pushdown, hash joins, big buffer pool) against an out-of-the-box
   configuration differs by a factor in the tutorial's 2-10 band, and
   measuring different pipeline stages is also flagged.

Since the multi-backend layer landed (:mod:`repro.db.systems`), the
prescription is backed by a *real* checklist: war story 2 is replayed
through :class:`~repro.measurement.comparison.FairComparisonHarness`
with deliberately mismatched protocols, and the automated Taipalus
pitfall checklist flags the stage/warm-up mismatch plus the
never-compared plan shapes.  E27 runs the full cross-system study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import ComparisonContext, FairnessReport, check_fairness
from repro.db import Engine, EngineConfig, MiniDBLoopSystem
from repro.hardware import BuildMode, BuildModel
from repro.measurement import PickRule, RunProtocol, State
from repro.measurement.comparison import (
    ComparisonReport,
    FairComparisonHarness,
    QuerySpec,
    WorkloadSpec,
)
from repro.workloads import generate_tpch, tpch_query


@dataclass(frozen=True)
class E18Result:
    dbg_over_opt_cpu: float
    untuned_over_tuned: float
    build_report: FairnessReport
    stage_report: FairnessReport
    pitfall_report: ComparisonReport

    def format(self) -> str:
        lines = [
            "E18: apples and oranges (slides 37-45)",
            "",
            "war story 1 — forgotten compiler flags:",
            f"  same query, DBG/OPT CPU-time ratio: "
            f"{self.dbg_over_opt_cpu:.2f}x (tutorial: up to ~2x)",
            "  " + self.build_report.format().replace("\n", "\n  "),
            "",
            "war story 2 — tuned prototype vs out-of-the-box system:",
            f"  untuned/tuned hot runtime ratio: "
            f"{self.untuned_over_tuned:.1f}x (tutorial: factor 2-10)",
            "  " + self.stage_report.format().replace("\n", "\n  "),
            "",
            "war story 2, replayed through the automated checklist "
            "(repro.measurement.comparison):",
            "  " + self.pitfall_report.format().replace("\n", "\n  "),
        ]
        return "\n".join(lines)


def _hot(engine: Engine, sql: str):
    result = None
    for __ in range(2):
        result = engine.execute(sql)
    return result.server_time


def _pitfall_replay(db, sql: str) -> ComparisonReport:
    """War story 2 through the real checklist.

    The "prototype" (tuned MiniDB) gets warm-up it never discloses
    while the "off-the-shelf" contender is measured cold — the two
    classic protocol mismatches — and no plan shape is ever forced, so
    the automated Taipalus checklist must flag all three.
    """
    prototype = MiniDBLoopSystem(EngineConfig(), label="prototype-X")
    shelf = MiniDBLoopSystem(EngineConfig.untuned(),
                             label="off-the-shelf-Y")
    harness = FairComparisonHarness(
        (prototype, shelf),
        protocol=RunProtocol(state=State.HOT, repetitions=3,
                             pick=PickRule.MEDIAN, warmups=2),
        protocols={"off-the-shelf-Y": RunProtocol(
            state=State.COLD, repetitions=3, pick=PickRule.MEDIAN,
            warmups=0)})
    spec = WorkloadSpec(name="e18-war-story-2",
                        queries=(QuerySpec("q3", sql),))
    return harness.run(db, spec)


def run_e18(sf: float = 0.005, seed: int = 42) -> E18Result:
    db = generate_tpch(sf=sf, seed=seed)
    sql = tpch_query(3)  # 3-way join + aggregation: both knobs matter

    opt = Engine(db, EngineConfig(build=BuildModel(BuildMode.OPT)))
    dbg = Engine(db, EngineConfig(build=BuildModel(BuildMode.DBG)))
    dbg_ratio = _hot(dbg, sql).user / _hot(opt, sql).user

    tuned = Engine(db, EngineConfig())
    untuned = Engine(db, EngineConfig.untuned())
    tuned_ratio = _hot(untuned, sql).real / _hot(tuned, sql).real

    build_report = check_fairness(
        ComparisonContext("old-code (A, OPT)", optimized_build=True),
        ComparisonContext("new-code (B, DBG)", optimized_build=False))
    stage_report = check_fairness(
        ComparisonContext("prototype-X", tuned=True, stages=("execute",)),
        ComparisonContext("off-the-shelf-Y", tuned=False))
    return E18Result(dbg_over_opt_cpu=dbg_ratio,
                     untuned_over_tuned=tuned_ratio,
                     build_report=build_report,
                     stage_report=stage_report,
                     pitfall_report=_pitfall_replay(db, sql))
