"""E05 — profiling TPC-H Q1: tuple-at-a-time vs column-at-a-time
(slide 54).

The tutorial contrasts a MySQL gprof trace (interpretation-dominated:
most time in per-tuple overhead, little in actual data work) with a
MonetDB/MIL trace (time concentrated in a few vectorised primitives).
MiniDB charges both execution models as cost profiles of one
implementation; profiling Q1 under each reproduces the contrast:

- ``tuple``: the per-tuple interpretation overhead dominates the
  execute phase;
- ``loop`` (no per-tuple overhead): the scan/aggregation primitives
  dominate, and total execute time is far smaller.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db import Engine, EngineConfig, ProfileReport
from repro.workloads import generate_tpch, tpch_query


@dataclass(frozen=True)
class E05Result:
    column_profile: ProfileReport
    tuple_profile: ProfileReport

    @property
    def tuple_over_column(self) -> float:
        """How much slower the Volcano engine executes Q1."""
        column = self.column_profile.execute_ms
        return self.tuple_profile.execute_ms / column if column else \
            float("inf")

    def format(self) -> str:
        lines = [
            "E05: TPC-H Q1 profile, column-at-a-time vs tuple-at-a-time",
            "",
            "--- column-at-a-time (MonetDB-style) ---",
            self.column_profile.format(),
            "",
            "--- tuple-at-a-time (MySQL-style Volcano) ---",
            self.tuple_profile.format(),
            "",
            f"tuple/column execute-time ratio: "
            f"{self.tuple_over_column:.1f}x",
            "(interpretation overhead per tuple dominates the row engine)",
        ]
        return "\n".join(lines)


def _hot_profile(engine: Engine, sql: str) -> ProfileReport:
    engine.execute(sql)  # warm the buffer pool
    __, report = engine.profile(sql)
    return report


def run_e05(sf: float = 0.01, seed: int = 42) -> E05Result:
    """Profile Q1 hot under the ``loop`` and ``tuple`` cost profiles."""
    sql = tpch_query(1)
    db = generate_tpch(sf=sf, seed=seed)
    column_engine = Engine(db, EngineConfig(executor="loop"))
    tuple_engine = Engine(db, EngineConfig(executor="tuple"))
    return E05Result(
        column_profile=_hot_profile(column_engine, sql),
        tuple_profile=_hot_profile(tuple_engine, sql))
