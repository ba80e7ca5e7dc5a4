"""E20 — the two-stage methodology end to end (slides 56-59, 110-113).

Five two-level factors govern a MiniDB query's (simulated) runtime:

- ``build``  : OPT vs DBG compiler build;
- ``tuned``  : optimizer smarts on/off;
- ``mode``   : column- vs tuple-at-a-time execution;
- ``buffer`` : large vs small buffer pool;
- ``output`` : file vs terminal result sink.

Stage 1 runs a 2^(5-2) fractional screening design (8 instead of 32
experiments), allocates variation, and keeps the dominant factors.
Stage 2 refines with a full factorial over the kept factors.  The
expected outcome at these sizes: the buffer pool (the small level does
not hold the working set, so every run pays I/O), the execution model
and the build dominate; the output sink (tiny results) is noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core import FactorSpace, TwoStageResult, screen_and_refine, two_level
from repro.db import (
    Client,
    Engine,
    EngineConfig,
    FileSink,
    TerminalSink,
)
from repro.hardware import BuildMode, BuildModel
from repro.workloads import generate_tpch, tpch_query


def make_space() -> FactorSpace:
    return FactorSpace([
        two_level("build", "opt", "dbg"),
        two_level("tuned", "yes", "no"),
        two_level("mode", "column", "tuple"),
        two_level("buffer", "large", "small"),
        two_level("output", "file", "terminal"),
    ])


class QueryExperiment:
    """Runs one TPC-H query under a factor configuration; returns sim ms."""

    def __init__(self, sf: float = 0.003, seed: int = 42, query: int = 3):
        self.database = generate_tpch(sf=sf, seed=seed)
        self.sql = tpch_query(query)

    def __call__(self, config: Mapping[str, Any]) -> float:
        engine_config = EngineConfig(
            buffer_pages=4096 if config["buffer"] == "large" else 8,
            executor=("loop" if config["mode"] == "column" else "tuple"),
            build=BuildModel(BuildMode.OPT if config["build"] == "opt"
                             else BuildMode.DBG),
            tuned=(config["tuned"] == "yes"),
        )
        engine = Engine(self.database, engine_config)
        sink = FileSink() if config["output"] == "file" else TerminalSink()
        client = Client(engine, sink)
        client.run(self.sql)                # warm-up run
        measurement = client.run(self.sql)  # measured hot run
        return measurement.client_real_ms


@dataclass(frozen=True)
class E20Result:
    outcome: TwoStageResult
    screening_runs: int
    refinement_runs: int
    full_factorial_runs: int

    def format(self) -> str:
        screening = self.outcome.screening
        refinement = self.outcome.refinement
        lines = [
            "E20: two-stage methodology (screen with 2^(5-2), refine)",
            "",
            f"stage 1: {self.screening_runs} screening experiments "
            f"(full factorial would need {self.full_factorial_runs})",
            screening.variation.format(),
            f"selected factors: {list(screening.selected)}",
            "",
            f"stage 2: {self.refinement_runs} refinement experiments "
            "over the selected factors",
            f"best configuration: {refinement.best_configuration}",
            f"best response     : {refinement.best_response:.1f} ms "
            "(simulated)",
        ]
        return "\n".join(lines)


def run_e20(sf: float = 0.003, seed: int = 42) -> E20Result:
    space = make_space()
    experiment = QueryExperiment(sf=sf, seed=seed)
    outcome = screen_and_refine(
        space, experiment,
        generators={"buffer": ("build", "tuned"),
                    "output": ("build", "mode")},
        keep=2, minimize=True)
    return E20Result(
        outcome=outcome,
        screening_runs=len(list(outcome.screening.design.points())),
        refinement_runs=len(outcome.refinement.responses),
        full_factorial_runs=space.full_size())
