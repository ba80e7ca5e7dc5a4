"""Fair cross-system comparison harness + Taipalus pitfall checklist.

The tutorial's "apples and oranges" slides (37-45) list the ways a
cross-system comparison silently becomes unfair; Taipalus's systematic
review of DBMS performance comparisons (arXiv 2301.01095) catalogues
the same failures in the published record — undisclosed tuning,
mismatched warm-up, single-metric reporting, unverified result sets.
Reviewer vigilance does not scale, so this module makes the checklist
*executable*: :class:`FairComparisonHarness` runs one workload spec
across N :class:`~repro.db.systems.DatabaseSystem` backends under
per-system run protocols, collects per-system timing samples through
the :mod:`repro.measurement.speedup` bootstrap machinery, and emits a
pass/warn verdict per pitfall into the report.

A *fair* configuration (identical protocols, verified results, forced
plan shapes) passes every check; the moment one system gets extra
warm-up or a different stage, the checklist flags it — the harness is
deliberately easy to misuse and loud when misused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import DatabaseError, MeasurementError
from repro.measurement.speedup import bootstrap_speedup_ci
from repro.measurement.stats import ConfidenceInterval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # repro.db imports repro.measurement at package-init time, so the
    # systems layer is only imported lazily (it is needed at call
    # time, never at import time).
    from repro.db.storage import Database
    from repro.db.systems import DatabaseSystem, SystemPlan, SystemResult

#: Valid warm-up stages a protocol can request.
STAGES: Tuple[str, ...] = ("warm", "cold")

#: Metrics the harness reports per system by default.  Reporting more
#: than one is itself a checklist item: a single number hides the
#: throughput-vs-latency (or CPU-vs-elapsed) trade-off.
DEFAULT_METRICS: Tuple[str, ...] = ("wall_s", "simulated_s", "rows")


@dataclass(frozen=True)
class ComparisonProtocol:
    """The measurement protocol one system runs under.

    ``stage="warm"`` runs *warmup* unmeasured repetitions first;
    ``stage="cold"`` flushes caches (where the backend supports it)
    before every measured repetition instead.
    """

    stage: str = "warm"
    warmup: int = 2
    repetitions: int = 5

    def __post_init__(self):
        if self.stage not in STAGES:
            raise MeasurementError(
                f"unknown stage {self.stage!r}; expected one of {STAGES}")
        if self.warmup < 0:
            raise MeasurementError("warmup must be >= 0")
        if self.repetitions < 1:
            raise MeasurementError("repetitions must be >= 1")

    def describe(self) -> str:
        return (f"{self.stage} stage, {self.warmup} warm-up + "
                f"{self.repetitions} measured run(s)")


@dataclass(frozen=True)
class QuerySpec:
    """One query of a workload, plus the join orders to force."""

    name: str
    sql: str
    forced_orders: Tuple[Tuple[str, ...], ...] = ()

    def variants(self) -> Tuple[Optional[Tuple[str, ...]], ...]:
        """None (planner's own choice) followed by each forced order."""
        return (None,) + self.forced_orders


@dataclass(frozen=True)
class WorkloadSpec:
    """A named set of queries over one dataset, run unchanged on every
    system under comparison."""

    name: str
    queries: Tuple[QuerySpec, ...]
    scale: str = ""

    def __post_init__(self):
        if not self.queries:
            raise MeasurementError(f"workload {self.name!r} has no queries")


@dataclass(frozen=True)
class VariantMeasurement:
    """One (system, query, forced-order) cell of the comparison grid."""

    system: str
    query: str
    order: Optional[Tuple[str, ...]]
    wall_samples: Tuple[float, ...]
    simulated_s: Optional[float]
    result: SystemResult
    plan: Optional[SystemPlan]
    forcing_error: Optional[str] = None

    @property
    def median_wall_s(self) -> float:
        ordered = sorted(self.wall_samples)
        return ordered[len(ordered) // 2]


@dataclass(frozen=True)
class PitfallCheck:
    """One Taipalus-checklist verdict."""

    key: str
    description: str
    status: str          # "pass" | "warn"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def format(self) -> str:
        mark = "ok  " if self.passed else "WARN"
        tail = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.key}: {self.description}{tail}"


@dataclass(frozen=True)
class SystemSummary:
    """Per-system roll-up across the whole workload."""

    system: str
    config: Mapping[str, str]
    protocol: ComparisonProtocol
    fingerprint: Mapping[str, int]
    median_wall_s: float
    simulated_s: Optional[float]
    rows_returned: int
    speedup_vs_baseline: Optional[ConfidenceInterval] = None


@dataclass(frozen=True)
class ComparisonReport:
    """Everything one cross-system study produced, checklist included."""

    workload: str
    systems: Tuple[str, ...]
    baseline: str
    summaries: Tuple[SystemSummary, ...]
    measurements: Tuple[VariantMeasurement, ...]
    pitfalls: Tuple[PitfallCheck, ...]
    metrics: Tuple[str, ...] = DEFAULT_METRICS

    def pitfall(self, key: str) -> PitfallCheck:
        for check in self.pitfalls:
            if check.key == key:
                return check
        raise MeasurementError(
            f"no pitfall check {key!r}; known: "
            f"{[c.key for c in self.pitfalls]}")

    @property
    def warnings(self) -> Tuple[PitfallCheck, ...]:
        return tuple(c for c in self.pitfalls if not c.passed)

    @property
    def is_fair(self) -> bool:
        """True iff every pitfall check passed."""
        return not self.warnings

    def summary(self, system: str) -> SystemSummary:
        for entry in self.summaries:
            if entry.system == system:
                return entry
        raise MeasurementError(
            f"no summary for system {system!r}; systems: "
            f"{list(self.systems)}")

    def format(self) -> str:
        lines = [f"cross-system comparison: {self.workload} "
                 f"(baseline {self.baseline})"]
        for entry in self.summaries:
            speed = ""
            ci = entry.speedup_vs_baseline
            if ci is not None:
                speed = (f"  speedup {ci.mean:.2f}x "
                         f"[{ci.low:.2f}, {ci.high:.2f}]")
            sim = (f"  sim {entry.simulated_s * 1000.0:.2f}ms"
                   if entry.simulated_s is not None else "")
            lines.append(
                f"  {entry.system:<20} median "
                f"{entry.median_wall_s * 1000.0:.3f}ms{sim}"
                f"  rows {entry.rows_returned}{speed}"
                f"  ({entry.protocol.describe()})")
        lines.append(f"pitfall checklist "
                     f"({'fair' if self.is_fair else 'UNFAIR'}):")
        for check in self.pitfalls:
            lines.append("  " + check.format())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form for CI artifacts."""
        return {
            "workload": self.workload,
            "systems": list(self.systems),
            "baseline": self.baseline,
            "metrics": list(self.metrics),
            "fair": self.is_fair,
            "summaries": [
                {
                    "system": s.system,
                    "config": dict(s.config),
                    "protocol": {"stage": s.protocol.stage,
                                 "warmup": s.protocol.warmup,
                                 "repetitions": s.protocol.repetitions},
                    "fingerprint": dict(s.fingerprint),
                    "median_wall_s": s.median_wall_s,
                    "simulated_s": s.simulated_s,
                    "rows_returned": s.rows_returned,
                    "speedup_vs_baseline": (
                        None if s.speedup_vs_baseline is None else {
                            "point": s.speedup_vs_baseline.mean,
                            "low": s.speedup_vs_baseline.low,
                            "high": s.speedup_vs_baseline.high,
                            "confidence":
                                s.speedup_vs_baseline.confidence,
                        }),
                } for s in self.summaries
            ],
            "pitfalls": [
                {"key": c.key, "description": c.description,
                 "status": c.status, "detail": c.detail}
                for c in self.pitfalls
            ],
        }


#: key -> short description of each automated pitfall check.
PITFALLS: Tuple[Tuple[str, str], ...] = (
    ("tuning-disclosed", "every system discloses its tuning knobs"),
    ("identical-data", "all systems loaded identical data"),
    ("stage-match", "warm/cold stage identical across systems"),
    ("warmup-match", "warm-up and repetition counts identical"),
    ("result-equivalence", "result sets verified row-for-row"),
    ("multiple-metrics", "more than one metric reported"),
    ("plan-shapes", "plan shapes compared across systems"),
)


class FairComparisonHarness:
    """Run one workload spec across N systems, then audit the run.

    Parameters
    ----------
    systems:
        The contenders; the first is the speedup baseline.
    protocol:
        The protocol every system runs under, unless overridden.
    protocols:
        Optional per-system override ``{system_name: protocol}`` — the
        *unfair-by-construction* escape hatch.  Using it with
        mismatched values is exactly what the checklist flags.
    metrics:
        Names of the metrics the report carries; fewer than two trips
        the single-metric pitfall.
    bootstrap_seed:
        Seed for the speedup bootstrap, so reruns produce identical
        intervals from identical samples.
    """

    def __init__(self, systems: Sequence[DatabaseSystem],
                 protocol: Optional[ComparisonProtocol] = None,
                 protocols: Optional[
                     Mapping[str, ComparisonProtocol]] = None,
                 metrics: Sequence[str] = DEFAULT_METRICS,
                 bootstrap_seed: int = 0):
        if len(systems) < 2:
            raise MeasurementError(
                "a comparison needs >= 2 systems, got "
                f"{[s.name for s in systems]}")
        names = [s.name for s in systems]
        if len(set(names)) != len(names):
            raise MeasurementError(
                f"duplicate system names in {names}")
        self.systems = tuple(systems)
        self.protocol = protocol if protocol is not None \
            else ComparisonProtocol()
        self.protocols = dict(protocols) if protocols else {}
        unknown = set(self.protocols) - set(names)
        if unknown:
            raise MeasurementError(
                f"protocol overrides for unknown systems {sorted(unknown)}")
        if not metrics:
            raise MeasurementError("metrics cannot be empty")
        self.metrics = tuple(metrics)
        self.bootstrap_seed = bootstrap_seed

    def protocol_for(self, system_name: str) -> ComparisonProtocol:
        return self.protocols.get(system_name, self.protocol)

    # -- execution -------------------------------------------------------

    def _measure_variant(self, system: DatabaseSystem, query: QuerySpec,
                         order: Optional[Tuple[str, ...]]
                         ) -> VariantMeasurement:
        forcing_error: Optional[str] = None
        sql = query.sql
        if order is not None:
            try:
                sql = system.force_plan(query.sql, order)
            except DatabaseError as exc:
                # A backend that cannot take the forced shape still
                # runs the query — the plan-shapes check warns instead
                # of the whole study crashing.
                forcing_error = str(exc)
        plan: Optional[SystemPlan] = None
        if forcing_error is None:
            try:
                plan = system.explain(sql)
            except DatabaseError as exc:
                forcing_error = f"explain failed: {exc}"
        protocol = self.protocol_for(system.name)
        for __ in range(protocol.warmup):
            system.execute(sql)
        samples: List[float] = []
        result: Optional[SystemResult] = None
        for __ in range(protocol.repetitions):
            if protocol.stage == "cold":
                make_cold = getattr(system, "make_cold", None)
                if make_cold is not None:
                    make_cold()
            result = system.execute(sql)
            samples.append(result.wall_s)
        assert result is not None
        return VariantMeasurement(
            system=system.name, query=query.name, order=order,
            wall_samples=tuple(samples),
            simulated_s=result.simulated_s, result=result, plan=plan,
            forcing_error=forcing_error)

    def run(self, database: Database,
            spec: WorkloadSpec) -> ComparisonReport:
        """Load *database* into every system and run the whole spec."""
        configs: Dict[str, Mapping[str, str]] = {}
        for system in self.systems:
            system.connect()
            system.load(database)
            configs[system.name] = system.describe_config()

        measurements: List[VariantMeasurement] = []
        for query in spec.queries:
            for order in query.variants():
                for system in self.systems:
                    measurements.append(
                        self._measure_variant(system, query, order))

        summaries = self._summarize(configs, measurements)
        pitfalls = taipalus_checklist(
            systems=self.systems, configs=configs,
            protocols={s.name: self.protocol_for(s.name)
                       for s in self.systems},
            measurements=measurements, metrics=self.metrics)
        return ComparisonReport(
            workload=spec.name,
            systems=tuple(s.name for s in self.systems),
            baseline=self.systems[0].name,
            summaries=tuple(summaries),
            measurements=tuple(measurements),
            pitfalls=pitfalls, metrics=self.metrics)

    def _summarize(self, configs: Mapping[str, Mapping[str, str]],
                   measurements: Sequence[VariantMeasurement]
                   ) -> List[SystemSummary]:
        pooled: Dict[str, List[float]] = {s.name: [] for s in self.systems}
        simulated: Dict[str, float] = {}
        rows: Dict[str, int] = {s.name: 0 for s in self.systems}
        for m in measurements:
            pooled[m.system].extend(m.wall_samples)
            rows[m.system] += m.result.n_rows
            if m.simulated_s is not None:
                simulated[m.system] = (simulated.get(m.system, 0.0)
                                       + m.simulated_s)
        baseline = self.systems[0].name
        summaries = []
        for system in self.systems:
            name = system.name
            samples = sorted(pooled[name])
            ci = None
            if name != baseline:
                ci = bootstrap_speedup_ci(pooled[baseline], pooled[name],
                                          seed=self.bootstrap_seed)
            summaries.append(SystemSummary(
                system=name, config=configs[name],
                protocol=self.protocol_for(name),
                fingerprint=system.data_fingerprint(),
                median_wall_s=samples[len(samples) // 2],
                simulated_s=simulated.get(name),
                rows_returned=rows[name],
                speedup_vs_baseline=ci))
        return summaries


# ---------------------------------------------------------------------------
# The checklist itself
# ---------------------------------------------------------------------------

def _by_variant(measurements: Sequence[VariantMeasurement]
                ) -> Dict[Tuple[str, Optional[Tuple[str, ...]]],
                          List[VariantMeasurement]]:
    cells: Dict[Tuple[str, Optional[Tuple[str, ...]]],
                List[VariantMeasurement]] = {}
    for m in measurements:
        cells.setdefault((m.query, m.order), []).append(m)
    return cells


def taipalus_checklist(systems: Sequence[DatabaseSystem],
                       configs: Mapping[str, Mapping[str, str]],
                       protocols: Mapping[str, ComparisonProtocol],
                       measurements: Sequence[VariantMeasurement],
                       metrics: Sequence[str]
                       ) -> Tuple[PitfallCheck, ...]:
    """Audit one comparison run against the pitfall catalogue.

    Every check returns ``pass`` or ``warn`` — never an exception — so
    an unfair study still produces a complete (and damning) report.
    """
    from repro.db.systems import results_match

    descriptions = dict(PITFALLS)
    checks: List[PitfallCheck] = []

    def add(key: str, ok: bool, detail: str = "") -> None:
        checks.append(PitfallCheck(
            key=key, description=descriptions[key],
            status="pass" if ok else "warn", detail=detail))

    undisclosed = sorted(name for name, config in configs.items()
                         if not config)
    add("tuning-disclosed", not undisclosed,
        f"no config disclosed for {undisclosed}" if undisclosed else
        f"{len(configs)} system config(s) on record")

    prints = {name: dict(s.data_fingerprint())
              for name, s in ((s.name, s) for s in systems)}
    reference = next(iter(prints.values()))
    mismatched = sorted(name for name, fp in prints.items()
                        if fp != reference)
    add("identical-data", not mismatched and bool(reference),
        f"row counts diverge on {mismatched}" if mismatched else
        f"{sum(reference.values())} rows across "
        f"{len(reference)} table(s) on every system")

    stages = {p.stage for p in protocols.values()}
    # A cold protocol on a system that cannot flush its caches runs
    # warm in fact (the harness skips the missing make_cold).
    unflushable = sorted(s.name for s in systems
                         if protocols[s.name].stage == "cold"
                         and getattr(s, "make_cold", None) is None)
    stage_problems = []
    if len(stages) > 1:
        stage_problems.append(f"mixed stages {sorted(stages)}")
    if unflushable:
        stage_problems.append(
            f"cold stage requested but no make_cold on {unflushable}")
    add("stage-match", not stage_problems,
        "; ".join(stage_problems) or
        f"all systems measured {next(iter(stages))}")

    shapes = {(p.warmup, p.repetitions) for p in protocols.values()}
    add("warmup-match", len(shapes) == 1,
        ("per-system warm-up/repetitions differ: "
         + ", ".join(f"{name}={p.warmup}+{p.repetitions}"
                     for name, p in sorted(protocols.items())))
        if len(shapes) > 1 else
        "identical warm-up and repetition counts")

    unequal: List[str] = []
    for (query, order), cell in sorted(
            _by_variant(measurements).items(),
            key=lambda item: (item[0][0], item[0][1] or ())):
        reference_m = cell[0]
        for other in cell[1:]:
            if not results_match(reference_m.result, other.result):
                unequal.append(
                    f"{query}{'' if order is None else list(order)}: "
                    f"{reference_m.system} vs {other.system}")
    add("result-equivalence", not unequal,
        "; ".join(unequal) if unequal else
        f"{len(_by_variant(measurements))} variant(s) verified "
        "row-for-row")

    add("multiple-metrics", len(tuple(metrics)) >= 2,
        f"only {list(metrics)} reported" if len(tuple(metrics)) < 2
        else ", ".join(metrics))

    refusals: List[str] = []
    diverged: List[str] = []
    forced_cells = 0
    for (query, order), cell in sorted(
            _by_variant(measurements).items(),
            key=lambda item: (item[0][0], item[0][1] or ())):
        if order is None:
            continue
        forced_cells += 1
        for m in cell:
            if m.forcing_error is not None or m.plan is None:
                refusals.append(f"{m.system} on {query}")
            elif m.plan.join_order != order:
                diverged.append(
                    f"{m.system} ran {list(m.plan.join_order)} for "
                    f"{query} instead of {list(order)}")
    non_forcing = sorted(s.name for s in systems
                         if not s.supports_plan_forcing)
    if refusals or non_forcing:
        add("plan-shapes", False,
            "plan shapes not comparable: "
            + "; ".join(sorted(set(refusals))
                        + [f"{n} does not support forcing"
                           for n in non_forcing]))
    elif diverged:
        add("plan-shapes", False, "; ".join(diverged))
    elif forced_cells == 0:
        add("plan-shapes", False,
            "plan shapes not comparable: no forced join orders in "
            "the workload spec")
    else:
        add("plan-shapes", True,
            f"{forced_cells} forced variant(s) verified on every "
            "system")
    return tuple(checks)
