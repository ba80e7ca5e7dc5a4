"""E28 — the radix-partitioning curve: cache-conscious joins, measured.

Manegold, Boncz and Kersten's radix-cluster result is the canonical
cache-conscious join story: partitioning both join inputs on the low
bits of the key until every partition's hash table fits the cache turns
random DRAM misses into cache hits, at the price of extra sequential
partitioning passes.  More radix bits buy smaller partitions but cost
more per-partition setup — so the speedup over a plain hash join is a
*curve* with a sweet spot, not a single number.

This experiment traces that curve on MiniDB's simulated
:class:`~repro.hardware.cache.CacheModel` (the "tutorial laptop":
32 KB L1, 2 MB L2):

- factor ``regime``: the build side either *fits* L2 (``in_cache``) or
  exceeds it several times over (``out_of_cache``);
- factor ``bits``: the forced radix-bit count, ``0`` being the plain
  hash join baseline (no partitioning pass, full-working-set probes).

Every (regime, bits) point runs a hinted radix join under the standard
hot protocol; speedups versus the ``bits=0`` baseline of the same
regime are restated with seeded bootstrap CIs under the ``median``
protocol (the ``min``-protocol estimate rides along).  The expected
shape, and what the assertions pin:

- *out of cache* the curve rises as partitions start fitting cache and
  falls again when per-partition setup dominates — the classic radix
  sweet spot, with the best CI excluding 1.0x;
- *in cache* partitioning is pure overhead: the curve never
  meaningfully exceeds 1.0x (advisory, not load-bearing).

:func:`run_e28` additionally measures *wall-clock* speedups of the
same plans. On this Python/NumPy engine the radix partitioning work is
real but the cache benefit is not (the simulated hierarchy exists only
in the cost model), so the wall-clock CI is reported honestly —
typically at or below 1.0x — as a worked example of the tutorial's
"simulated speedups are claims about the model, not the machine".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import Factor, FactorSpace, FullFactorialDesign
from repro.db import Engine, EngineConfig
from repro.db.storage import Database, Table
from repro.db.types import DataType
from repro.errors import DesignError
from repro.hardware.cache import CacheModel
from repro.measurement import (
    ConfidenceInterval,
    NoiseModel,
    PickRule,
    RunProtocol,
    State,
    VirtualClock,
    Workload,
    bootstrap_speedup_ci,
    run_harness,
    speedup as speedup_estimate,
)
from repro.measurement.harness import HarnessReport

#: Measurement protocol: hot runs, 5 measured repetitions per point so
#: the bootstrap has a real sample to resample.
E28_PROTOCOL = RunProtocol(state=State.HOT, repetitions=5,
                           pick=PickRule.LAST, warmups=1)

#: Swept radix-bit levels; 0 is the plain hash join baseline.
BITS_LEVELS = (0, 2, 4, 6, 8, 10, 12)

#: (n_probe_rows, n_build_rows) per regime on the tutorial laptop's
#: 2 MB L2: the in-cache build's hash table is ~0.3 MB, the
#: out-of-cache build's ~5.8 MB (48 bytes/row).
REGIME_SIZES: Mapping[str, Tuple[int, int]] = {
    "in_cache": (20_000, 6_000),
    "out_of_cache": (160_000, 120_000),
}

#: The joined query; the hint pins the radix operator so the ``bits``
#: factor (EngineConfig.radix_bits) is the only thing that varies.
E28_SQL = ("SELECT SUM(lv * rv) AS dot FROM l JOIN r ON fk = pk "
           "/*+ JOIN_OP(r radix) */")

#: Relative std-dev of the multiplicative perturbation layered on the
#: deterministic simulated times (nonzero so CIs have width, small so
#: the ~8% out-of-cache effect stays resolvable).
DEFAULT_NOISE = 0.005


def make_space() -> FactorSpace:
    return FactorSpace([
        Factor("regime", tuple(REGIME_SIZES)),
        Factor("bits", BITS_LEVELS),
    ])


def _join_database(n_probe: int, n_build: int, seed: int) -> Database:
    """A seeded FK->PK join pair: every probe row finds its match."""
    rng = np.random.default_rng(seed)
    database = Database()
    database.create_table(Table.from_columns(
        "l", [("fk", DataType.INT64), ("lv", DataType.FLOAT64)],
        {"fk": rng.integers(0, n_build, n_probe),
         "lv": rng.random(n_probe)}))
    database.create_table(Table.from_columns(
        "r", [("pk", DataType.INT64), ("rv", DataType.FLOAT64)],
        {"pk": np.arange(n_build), "rv": rng.random(n_build)}))
    return database


class RadixCurveWorkload(Workload):
    """One hinted radix join per run, at one (regime, bits) point.

    ``setup`` rebuilds the engine on the campaign clock with the
    configured forced bit count and the tutorial-laptop cache model;
    the databases (one per regime) are built once from ``data_seed``
    and shared across points, so every bit level joins identical data.
    """

    def __init__(self, clock: VirtualClock, noise: NoiseModel,
                 data_seed: int = 7):
        self.clock = clock
        self.noise = noise
        self.data_seed = data_seed
        self._databases: Dict[str, Database] = {
            regime: _join_database(n_probe, n_build, data_seed)
            for regime, (n_probe, n_build) in REGIME_SIZES.items()}
        self._engine: Optional[Engine] = None

    def setup(self, config: Mapping[str, Any]) -> None:
        engine_config = EngineConfig(
            executor="vectorized", optimizer="cost",
            cache_model=CacheModel.tutorial_laptop(),
            radix_bits=int(config["bits"]))
        self._engine = Engine(self._databases[str(config["regime"])],
                              engine_config, clock=self.clock)

    def run(self) -> None:
        before = self.clock.now
        self._engine.execute(E28_SQL)
        elapsed = self.clock.now - before
        perturbed = self.noise.perturb(elapsed)
        if perturbed > elapsed:
            self.clock.advance(cpu_seconds=perturbed - elapsed)

    def make_cold(self) -> None:
        self._engine.make_cold()


@dataclass(frozen=True)
class CurvePoint:
    """One (regime, bits) point of the radix curve."""

    regime: str
    bits: int
    median_ms: float
    #: Speedup vs the same regime's bits=0 baseline: seeded bootstrap
    #: CI under the ``median`` protocol; 1.0x flat for the baseline.
    speedup: ConfidenceInterval
    #: The ``min``-protocol point estimate of the same speedup.
    speedup_min: float

    def format_row(self) -> str:
        return (f"  {self.regime:<13} {self.bits:>4}  "
                f"{self.median_ms:>9.3f}  "
                f"{self.speedup.mean:>6.3f}x "
                f"[{self.speedup.low:.3f}, {self.speedup.high:.3f}]  "
                f"min {self.speedup_min:.3f}x")


@dataclass(frozen=True)
class E28Result:
    """The radix-partitioning curve and its verdicts."""

    report: HarnessReport
    curve: Tuple[CurvePoint, ...]
    #: Best non-zero bit level per regime (by median-protocol speedup).
    sweet_spots: Mapping[str, int]
    #: Wall-clock restatement of the out-of-cache sweet spot vs the
    #: hash baseline (None when run with ``wall_clock=False``).
    wall_speedup: Optional[ConfidenceInterval] = None

    def points(self, regime: str) -> Tuple[CurvePoint, ...]:
        return tuple(p for p in self.curve if p.regime == regime)

    def point(self, regime: str, bits: int) -> CurvePoint:
        for p in self.curve:
            if p.regime == regime and p.bits == bits:
                return p
        raise DesignError(f"no curve point ({regime!r}, bits={bits})")

    def best(self, regime: str) -> CurvePoint:
        return self.point(regime, self.sweet_spots[regime])

    def format(self) -> str:
        lines = [
            "E28: radix-partitioned join vs plain hash join "
            "(simulated 32KB L1 / 2MB L2)",
            "",
            "  regime        bits  median_ms  speedup vs bits=0 "
            "(bootstrap 95%, median protocol)",
        ]
        for point in self.curve:
            lines.append(point.format_row())
        for regime in REGIME_SIZES:
            best = self.best(regime)
            lines.append(
                f"sweet spot {regime}: bits={best.bits} at "
                f"{best.speedup.mean:.3f}x "
                f"[{best.speedup.low:.3f}, {best.speedup.high:.3f}]")
        if self.wall_speedup is not None:
            ci = self.wall_speedup
            lines.append(
                f"wall clock (out-of-cache sweet spot vs hash): "
                f"{ci.mean:.3f}x [{ci.low:.3f}, {ci.high:.3f}] — the "
                "simulated win is a claim about the cache model, not "
                "this Python host")
        lines.append(
            "methodology: " + self.report.documentation())
        return "\n".join(lines)


def _analyze(report: HarnessReport) -> E28Result:
    design = FullFactorialDesign(make_space())
    reals: Dict[Tuple[str, int], List[float]] = {}
    for point in design.points():
        outcome = report.raw.get(point.index)
        if outcome is None:
            continue
        key = (str(point.config["regime"]), int(point.config["bits"]))
        reals[key] = list(outcome.reals)
    curve: List[CurvePoint] = []
    sweet_spots: Dict[str, int] = {}
    for regime in REGIME_SIZES:
        baseline = reals[(regime, 0)]
        best_bits, best_speedup = 0, None
        for bits in BITS_LEVELS:
            sample = reals[(regime, bits)]
            ci = bootstrap_speedup_ci(baseline, sample,
                                      protocol="median", seed=0)
            ordered = sorted(sample)
            curve.append(CurvePoint(
                regime=regime, bits=bits,
                median_ms=ordered[len(ordered) // 2] * 1000.0,
                speedup=ci,
                speedup_min=speedup_estimate(baseline, sample,
                                             protocol="min")))
            if bits and (best_speedup is None
                         or ci.mean > best_speedup):
                best_bits, best_speedup = bits, ci.mean
        sweet_spots[regime] = best_bits
    return E28Result(report=report, curve=tuple(curve),
                     sweet_spots=dict(sweet_spots))


def _wall_speedup(data_seed: int, bits: int,
                  repetitions: int = 5) -> ConfidenceInterval:
    """Wall-clock CI of the out-of-cache radix plan vs the hash plan.

    Real ``perf_counter`` timings of the identical queries (one warm-up
    each), so this is the one number in E28 the virtual clock does not
    control — it is allowed to disagree with the simulated curve, and
    the module docstring explains why it usually does.
    """
    n_probe, n_build = REGIME_SIZES["out_of_cache"]
    database = _join_database(n_probe, n_build, data_seed)

    def times(radix_bits: int) -> List[float]:
        engine = Engine(database, EngineConfig(
            executor="vectorized", optimizer="cost",
            cache_model=CacheModel.tutorial_laptop(),
            radix_bits=radix_bits))
        engine.execute(E28_SQL)  # warm-up
        samples = []
        for __ in range(repetitions):
            start = time.perf_counter()
            engine.execute(E28_SQL)
            samples.append(time.perf_counter() - start)
        return samples

    return bootstrap_speedup_ci(times(0), times(bits),
                                protocol="median", seed=0)


def run_e28(seed: int = 7, data_seed: int = 7,
            noise: float = DEFAULT_NOISE,
            wall_clock: bool = True) -> E28Result:
    """Run the campaign and analyse it.

    One shared virtual clock and noise stream across the design (the
    tutorial's single-machine campaign); ``wall_clock=False`` skips the
    real-time restatement (useful on noisy CI hosts).
    """
    design = FullFactorialDesign(make_space())
    clock = VirtualClock()
    workload = RadixCurveWorkload(
        clock, NoiseModel(seed=seed, relative_std=noise),
        data_seed=data_seed)
    report = run_harness(design, workload, E28_PROTOCOL, clock=clock,
                         name="e28")
    result = _analyze(report.require_complete())
    if wall_clock:
        result = replace(result, wall_speedup=_wall_speedup(
            data_seed, result.sweet_spots["out_of_cache"]))
    return result

