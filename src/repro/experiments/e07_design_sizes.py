"""E07 — how many experiments does each design need? (slides 56-66).

The tutorial's motivating scenario: 5 parameters with 10-40 values each.
A full factorial needs at least 10^5 experiments; a simple one-at-a-time
design needs only 1 + Σ(n_i - 1) but cannot see interactions; a 2^k
first-cut over the extremes needs 32; a 2^(k-p) fraction even fewer.

Beyond the size *table*, this module also makes the scenario
executable: :func:`run_e07_campaign` actually measures every point of a
chosen design on a synthetic virtual-clock workload, and — because each
design kind multiplies the point count — is the first experiment wired
through the sharded executor (``jobs=N`` via :mod:`repro.parallel`).
:func:`build_e07_replicated_campaign` is the heavyweight variant (a
replicated MiniDB TPC-H campaign) that the speed-up benchmark drives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Mapping, Optional, Sequence, Tuple

from repro.core import (
    Factor,
    FactorSpace,
    FractionalFactorialDesign,
    FullFactorialDesign,
    SimpleDesign,
    TwoLevelFactorialDesign,
    fractional_size,
    full_factorial_size,
    simple_design_size,
    two_level,
    two_level_size,
)
from repro.db import Client, Engine, EngineConfig, FileSink
from repro.errors import DesignError
from repro.measurement import (
    LAST_OF_THREE_HOT,
    NoiseModel,
    VirtualClock,
    Workload,
)
from repro.parallel import CampaignSpec, CampaignStack, run_campaign
from repro.parallel.merge import ParallelReport
from repro.workloads import generate_tpch, tpch_query


@dataclass(frozen=True)
class DesignSizeRow:
    design: str
    experiments: int
    sees_interactions: str


@dataclass(frozen=True)
class E07Result:
    level_counts: Tuple[int, ...]
    rows: Tuple[DesignSizeRow, ...]

    def size_of(self, design: str) -> int:
        for row in self.rows:
            if row.design == design:
                return row.experiments
        raise KeyError(design)

    def format(self) -> str:
        lines = [
            f"E07: design sizes for {len(self.level_counts)} factors with "
            f"levels {list(self.level_counts)}",
            f"{'design':<24} {'experiments':>12}  interactions?",
        ]
        for row in self.rows:
            lines.append(f"{row.design:<24} {row.experiments:>12,}  "
                         f"{row.sees_interactions}")
        lines.append("-> run a 2^k (or 2^(k-p)) first, evaluate factor "
                      "importance, then refine")
        return "\n".join(lines)


def run_e07(level_counts: Sequence[int] = (10, 20, 25, 30, 40),
            fraction_p: int = 2) -> E07Result:
    """Tabulate every classical design's size for the given scenario."""
    level_counts = tuple(level_counts)
    k = len(level_counts)
    rows = (
        DesignSizeRow("full factorial",
                      full_factorial_size(level_counts), "all"),
        DesignSizeRow("simple (one-at-a-time)",
                      simple_design_size(level_counts), "none"),
        DesignSizeRow("2^k (extremes)", two_level_size(k), "all (2-level)"),
        DesignSizeRow(f"2^(k-{fraction_p}) fraction",
                      fractional_size(k, fraction_p),
                      "confounded (see E12)"),
    )
    return E07Result(level_counts=level_counts, rows=rows)


# ---------------------------------------------------------------------------
# The scenario, executed: measured campaigns over each design kind.
# ---------------------------------------------------------------------------

#: Design kinds :func:`build_e07_campaign` knows how to enumerate.
DESIGN_KINDS = ("twolevel", "simple", "full", "fractional")

class SyntheticDesignWorkload(Workload):
    """A virtual-clock workload whose cost is a function of the config.

    Each factor set ``high`` adds a fixed increment to the base cost
    (plus a small pairwise interaction term, so effect estimation has
    something to find); a seeded :class:`NoiseModel` perturbs each run.
    On a :class:`VirtualClock` this measures in microseconds of real
    time no matter how large the design is — which is exactly why E07
    can afford to *execute* designs it tabulates.
    """

    def __init__(self, clock: VirtualClock, noise: NoiseModel,
                 base_ms: float = 8.0, step_ms: float = 2.0):
        self.clock = clock
        self.noise = noise
        self.base_ms = base_ms
        self.step_ms = step_ms
        self._cost_s = 0.0

    def setup(self, config: Mapping[str, Any]) -> None:
        highs = [name for name in sorted(config)
                 if config[name] == "high"]
        cost_ms = self.base_ms + self.step_ms * len(highs)
        # Pairwise interactions: adjacent high factors reinforce.
        cost_ms += 0.5 * self.step_ms * max(0, len(highs) - 1)
        self._cost_s = cost_ms / 1000.0

    def run(self) -> None:
        self.clock.advance(cpu_seconds=self.noise.perturb(self._cost_s))

    def make_cold(self) -> None:
        pass


def _e07_space(k: int) -> FactorSpace:
    return FactorSpace([two_level(f"f{i}", "low", "high")
                        for i in range(1, k + 1)])


def _e07_design(kind: str, k: int):
    space = _e07_space(k)
    if kind == "twolevel" or kind == "full":
        # All factors are two-level, so the full factorial over the
        # extremes *is* the 2^k design; keep both spellings.
        return (TwoLevelFactorialDesign(space) if kind == "twolevel"
                else FullFactorialDesign(space))
    if kind == "simple":
        return SimpleDesign(space)
    if kind == "fractional":
        if k < 3:
            raise DesignError(
                f"a 2^(k-1) fraction needs k >= 3 factors, got {k}")
        names = [f.name for f in space.factors]
        return FractionalFactorialDesign(
            space, base_factors=names[:-1],
            generators={names[-1]: tuple(names[:-1])})
    raise DesignError(
        f"unknown design kind {kind!r}; expected one of {DESIGN_KINDS}")


def build_e07_campaign(params: Mapping[str, Any],
                       seed: int) -> CampaignStack:
    """Campaign factory: one design point's synthetic stack.

    ``params``: ``kind`` (one of :data:`DESIGN_KINDS`), ``k`` (factor
    count), ``base_ms``/``step_ms`` (cost model), ``noise`` (relative
    std of the run-to-run noise).  ``seed`` is the per-point seed the
    executor derives; it only feeds the noise stream.
    """
    kind = str(params.get("kind", "twolevel"))
    k = int(params.get("k", 4))
    clock = VirtualClock()
    noise = NoiseModel(seed=seed,
                       relative_std=float(params.get("noise", 0.05)))
    workload = SyntheticDesignWorkload(
        clock, noise, base_ms=float(params.get("base_ms", 8.0)),
        step_ms=float(params.get("step_ms", 2.0)))
    return CampaignStack(design=_e07_design(kind, k), workload=workload,
                         protocol=LAST_OF_THREE_HOT, clock=clock)


def run_e07_campaign(kind: str = "twolevel", k: int = 4, seed: int = 7,
                     jobs: int = 1, noise: float = 0.05,
                     checkpoint: Optional[str] = None,
                     trace: bool = False) -> ParallelReport:
    """Measure every point of one E07 design, optionally sharded.

    The report is byte-identical for any ``jobs`` value; see
    :mod:`repro.parallel`.
    """
    spec = CampaignSpec(
        factory="repro.experiments.e07_design_sizes:build_e07_campaign",
        params={"kind": kind, "k": k, "noise": noise}, seed=seed,
        name=f"e07-{kind}")
    return run_campaign(spec, jobs=jobs, checkpoint=checkpoint,
                        trace=trace)


# ---------------------------------------------------------------------------
# The heavyweight variant: a replicated MiniDB campaign (speed-up bench).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _tpch_database(sf: float, data_seed: int):
    """One TPC-H database per (sf, seed) per process.

    Workers share nothing, but within a process every design point
    reuses the same generated data — the expensive part of the stack.
    """
    return generate_tpch(sf=sf, seed=data_seed)


class ReplicatedQueryWorkload(Workload):
    """One TPC-H query per run on a fresh engine per design point.

    The ``rep`` factor only replicates the measurement (distinct design
    points, distinct noise streams); ``mode`` actually reconfigures the
    engine.
    """

    def __init__(self, sf: float, data_seed: int, sql: str,
                 clock: VirtualClock):
        self.sf = sf
        self.data_seed = data_seed
        self.sql = sql
        self.clock = clock
        self._client: Optional[Client] = None

    def setup(self, config: Mapping[str, Any]) -> None:
        engine = Engine(
            _tpch_database(self.sf, self.data_seed),
            EngineConfig(executor=("loop" if config["mode"] == "column"
                                   else "tuple")),
            clock=self.clock)
        self._client = Client(engine, FileSink())

    def run(self) -> None:
        self._client.run(self.sql)

    def make_cold(self) -> None:
        self._client.engine.make_cold()


def build_e07_replicated_campaign(params: Mapping[str, Any],
                                  seed: int) -> CampaignStack:
    """Campaign factory: replicated (rep x mode) MiniDB TPC-H design.

    ``params``: ``sf`` (TPC-H scale factor), ``data_seed`` (shared data
    generation seed — deliberately *not* the per-point ``seed``, so all
    points query identical data), ``query`` (TPC-H query number),
    ``reps`` (replication count).
    """
    sf = float(params.get("sf", 0.002))
    data_seed = int(params.get("data_seed", 42))
    reps = int(params.get("reps", 4))
    space = FactorSpace([
        Factor("rep", list(range(reps))),
        two_level("mode", "column", "tuple"),
    ])
    clock = VirtualClock()
    workload = ReplicatedQueryWorkload(
        sf, data_seed, tpch_query(int(params.get("query", 1))), clock)
    return CampaignStack(design=FullFactorialDesign(space),
                         workload=workload, protocol=LAST_OF_THREE_HOT,
                         clock=clock)
