"""Calibrated per-operator cost model for the cost-based optimizer.

Each physical operator kind gets an :class:`OperatorCost` — a startup
cost, a time-per-work-unit slope, and a time-per-byte slope (the
palimpzest ``estimateCost()`` shape: startup + time-per-row +
bytes-touched).  A plan's cost is the sum over its nodes of::

    startup_ns + per_row_ns * work_units + per_byte_ns * bytes_touched

where ``work_units`` is the operator's characteristic work measure
(linear rows for scans and hash joins, ``n*log2(n)`` for sorts,
``n_left*n_right`` for nested loops — see :func:`work_units`).

Two ways to obtain a model:

- :data:`DEFAULT_COST_MODEL` — derived analytically from the engine's
  :class:`~repro.db.context.CostParameters` ns-constants;
- :func:`calibrate_cost_model` — the paper's *measure, then model*
  loop: runs a seeded training workload of micro-benchmarks under a
  :class:`~repro.obs.Tracer`, harvests per-operator span timings and
  hardware-counter deltas (``hw.io_reads``), and least-squares fits the
  coefficients per operator kind.

The cardinality side lives in :class:`CardinalityEstimator`, which
consumes the :class:`~repro.db.statistics.StatisticsCatalog`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.disk import PAGE_SIZE_BYTES
from repro.db.expressions import Expr
from repro.db.statistics import (
    StatisticsCatalog,
    combine_conjuncts,
    join_signature,
    predicate_selectivity,
    scan_signature,
)
from repro.db.storage import Database
from repro.errors import PlanError

#: Operator kinds the model knows; anything else costs per-row at the
#: Filter rate (a safe linear default).
KNOWN_KINDS = (
    "SeqScan", "IndexScan", "Filter", "Project", "HashJoin",
    "RadixHashJoin", "MergeJoin", "NestedLoopJoin", "Aggregate",
    "Distinct", "Sort", "Limit",
)


@dataclass(frozen=True)
class OperatorCost:
    """Cost coefficients for one operator kind (nanoseconds)."""

    startup_ns: float = 0.0
    per_row_ns: float = 0.0
    per_byte_ns: float = 0.0

    def total_ns(self, work: float, n_bytes: float = 0.0) -> float:
        return (self.startup_ns + self.per_row_ns * max(0.0, work)
                + self.per_byte_ns * max(0.0, n_bytes))


def work_units(kind: str, rows_in: float, rows_out: float,
               rows_in_right: float = 0.0) -> float:
    """The characteristic work measure of one operator kind.

    For joins ``rows_in`` is the left input and ``rows_in_right`` the
    right; for everything else ``rows_in_right`` is ignored.
    """
    rows_in = max(0.0, rows_in)
    rows_out = max(0.0, rows_out)
    right = max(0.0, rows_in_right)
    if kind == "NestedLoopJoin":
        return rows_in * right
    if kind in ("HashJoin", "RadixHashJoin", "MergeJoin"):
        return rows_in + right + rows_out
    if kind == "Sort":
        return rows_in * math.log2(rows_in) if rows_in > 1 else rows_in
    if kind in ("SeqScan", "IndexScan", "Limit"):
        return rows_out
    # Filter / Project / Aggregate / Distinct: linear in the input.
    return rows_in


@dataclass(frozen=True)
class CostModel:
    """Per-operator-kind coefficients, hashable for EngineConfig.

    ``coefficients`` is a sorted tuple of ``(kind, OperatorCost)`` so
    the model can live on a frozen config and key a plan cache.
    """

    coefficients: Tuple[Tuple[str, OperatorCost], ...]
    #: Where the coefficients came from: "analytic" or "calibrated".
    source: str = "analytic"

    def cost_for(self, kind: str) -> OperatorCost:
        for name, cost in self.coefficients:
            if name == kind:
                return cost
        return self.cost_for("Filter")

    def operator_ns(self, kind: str, rows_in: float, rows_out: float,
                    rows_in_right: float = 0.0,
                    bytes_touched: float = 0.0) -> float:
        """Estimated nanoseconds one operator invocation costs."""
        work = work_units(kind, rows_in, rows_out, rows_in_right)
        return self.cost_for(kind).total_ns(work, bytes_touched)

    def describe(self) -> str:
        lines = [f"cost model ({self.source}):"]
        for kind, cost in self.coefficients:
            lines.append(
                f"  {kind:<16} startup={cost.startup_ns:>10.0f}ns "
                f"per_row={cost.per_row_ns:>8.2f}ns "
                f"per_byte={cost.per_byte_ns:>6.3f}ns")
        return "\n".join(lines)


def _analytic_coefficients() -> Tuple[Tuple[str, OperatorCost], ...]:
    """Defaults derived from CostParameters' ``loop`` profile constants."""
    from repro.db.context import COSTS as c
    return tuple(sorted({
        # Scans pay per value materialised plus per byte pulled through
        # the buffer pool (column count enters via bytes_touched).
        "SeqScan": OperatorCost(2_000.0, c.scan_ns_per_value, 1.5),
        "IndexScan": OperatorCost(5_000.0, c.hash_probe_ns_per_row, 4.0),
        "Filter": OperatorCost(1_000.0, c.filter_ns_per_value, 0.0),
        "Project": OperatorCost(1_000.0, c.project_ns_per_value, 0.0),
        "HashJoin": OperatorCost(
            4_000.0, (c.hash_build_ns_per_row
                      + c.hash_probe_ns_per_row) / 2.0, 0.0),
        # Same build/probe work as HashJoin: the partitioning overhead
        # is added separately (context.join_access_ns) because it
        # depends on the cache geometry, not on the row counts alone.
        "RadixHashJoin": OperatorCost(
            4_000.0, (c.hash_build_ns_per_row
                      + c.hash_probe_ns_per_row) / 2.0, 0.0),
        "MergeJoin": OperatorCost(2_000.0, c.filter_ns_per_value, 0.0),
        "NestedLoopJoin": OperatorCost(
            1_000.0, c.filter_ns_per_value, 0.0),
        "Aggregate": OperatorCost(
            2_000.0, c.group_ns_per_row + c.agg_ns_per_value, 0.0),
        "Distinct": OperatorCost(2_000.0, c.group_ns_per_row, 0.0),
        "Sort": OperatorCost(2_000.0, c.sort_ns_per_compare, 0.0),
        "Limit": OperatorCost(500.0, 1.0, 0.0),
    }.items()))


DEFAULT_COST_MODEL = CostModel(coefficients=_analytic_coefficients(),
                               source="analytic")


# ---------------------------------------------------------------------------
# Calibration: fit coefficients from traced operator spans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationSample:
    """One observed operator execution, harvested from a trace span."""

    kind: str
    rows_in: float
    rows_out: float
    rows_in_right: float
    self_ns: float
    bytes_touched: float


def samples_from_trace(trace) -> List[CalibrationSample]:
    """Extract per-operator samples from a finished Trace.

    Operator spans carry ``kind``/``rows``/``self_ms`` attributes (set
    in :meth:`repro.db.plan.PlanNode.execute`); input rows come from the
    child operator spans, and bytes touched from the span's absorbed
    ``hw.io_reads`` counter delta (pages → bytes).

    Pages are attributed *exclusively*: the span's inclusive delta
    minus each direct child **operator** span's inclusive delta.
    ``self_ms`` is self time, so billing every nested operator's pages
    to all of its ancestors (the raw inclusive number) would smear one
    scan's cold I/O across the whole pipeline above it and inflate
    every fitted per-byte coefficient.  Non-operator descendants
    (buffer/kernel spans) stay with the operator that caused them —
    a scan's pages live on its ``buffer.read_table`` child span.
    """
    samples: List[CalibrationSample] = []
    for span in trace.category_spans("operator"):
        attrs = span.attributes
        if "kind" not in attrs or "rows" not in attrs:
            continue  # span died before stats were attached
        operator_children = [c for c in trace.children(span)
                             if c.category == "operator"]
        children = [c for c in operator_children
                    if "rows" in c.attributes]
        child_rows = [float(c.attributes["rows"]) for c in children]
        rows_out = float(attrs["rows"])
        if child_rows:
            rows_in = child_rows[0]
            rows_right = child_rows[1] if len(child_rows) > 1 else 0.0
        else:
            rows_in, rows_right = rows_out, 0.0
        pages = float(attrs.get("hw.io_reads", 0))
        pages -= sum(float(c.attributes.get("hw.io_reads", 0))
                     for c in operator_children)
        pages = max(0.0, pages)
        samples.append(CalibrationSample(
            kind=str(attrs["kind"]),
            rows_in=rows_in, rows_out=rows_out,
            rows_in_right=rows_right,
            self_ns=float(attrs.get("self_ms", 0.0)) * 1e6,
            bytes_touched=pages * PAGE_SIZE_BYTES))
    return samples


def fit_coefficients(samples: Sequence[CalibrationSample]
                     ) -> Dict[str, OperatorCost]:
    """Least-squares fit of (startup, per_row, per_byte) per kind.

    Kinds with fewer than 3 samples, or whose byte column is degenerate,
    fall back to a reduced fit; negative fitted coefficients clamp to 0
    (a cost model must be monotone in work).
    """
    by_kind: Dict[str, List[CalibrationSample]] = {}
    for sample in samples:
        by_kind.setdefault(sample.kind, []).append(sample)

    fitted: Dict[str, OperatorCost] = {}
    for kind, group in by_kind.items():
        work = np.asarray([work_units(s.kind, s.rows_in, s.rows_out,
                                      s.rows_in_right) for s in group])
        n_bytes = np.asarray([s.bytes_touched for s in group])
        y = np.asarray([s.self_ns for s in group])
        use_bytes = bool(np.ptp(n_bytes) > 0.0) and len(group) >= 4
        if use_bytes:
            # No intercept: cold-IO time is linear in pages read, so it
            # belongs on the per-byte slope, not on a fixed startup that
            # would inflate every hot scan's estimate.
            design = np.column_stack([work, n_bytes])
        else:
            design = np.column_stack([np.ones(len(group)), work])
        if len(group) < design.shape[1] or float(np.ptp(work)) == 0.0:
            # Too few / degenerate samples: a pure slope estimate.
            total_work = float(work.sum())
            slope = float(y.sum()) / total_work if total_work else 0.0
            fitted[kind] = OperatorCost(0.0, slope, 0.0)
            continue
        coef, *__ = np.linalg.lstsq(design, y, rcond=None)
        if use_bytes:
            startup = 0.0
            per_row = max(0.0, float(coef[0]))
            per_byte = max(0.0, float(coef[1]))
        else:
            startup = max(0.0, float(coef[0]))
            per_row = max(0.0, float(coef[1]))
            per_byte = 0.0
        fitted[kind] = OperatorCost(startup, per_row, per_byte)
    return fitted


def training_workload(seed: int = 7, executor: str = "loop"):
    """The seeded training micro-benchmarks calibration runs.

    Sizes and selectivities are spread so each operator kind's design
    matrix has rank: several input sizes, selectivities, group counts
    and join shapes; each query runs cold then hot so the byte column
    varies independently of the row columns.
    """
    from repro.db.engine import EngineConfig
    from repro.workloads.microbench import (
        aggregate_microbenchmark,
        join_microbenchmark,
        select_microbenchmark,
        sort_microbenchmark,
    )
    config = EngineConfig(executor=executor)
    micros = []
    for i, (n, sel) in enumerate([(2_000, 0.01), (5_000, 0.2),
                                  (10_000, 0.5), (20_000, 0.9)]):
        micros.append(select_microbenchmark(n, sel, seed=seed + i,
                                            config=config))
    for i, (n, groups) in enumerate([(2_000, 10), (8_000, 500),
                                     (20_000, 2_000)]):
        micros.append(aggregate_microbenchmark(n, groups, seed=seed + i,
                                               config=config))
    for i, (nl, nr) in enumerate([(2_000, 200), (6_000, 1_000),
                                  (12_000, 400)]):
        micros.append(join_microbenchmark(nl, nr, seed=seed + i,
                                          config=config))
    for i, n in enumerate([2_000, 8_000, 24_000]):
        micros.append(sort_microbenchmark(n, seed=seed + i,
                                          config=config))
    return micros


def calibrate_cost_model(seed: int = 7, executor: str = "loop"
                         ) -> CostModel:
    """Measure → fit → model: calibrate coefficients from traced runs.

    Deterministic for a given seed (all timings come off the engines'
    virtual clocks), so calibration is reproducible run to run.
    """
    from repro.obs import Tracer

    samples: List[CalibrationSample] = []
    for micro in training_workload(seed=seed, executor=executor):
        tracer = Tracer(clock=micro.engine.clock,
                        counters=micro.engine.counters)
        with tracer.activate():
            micro.run()              # cold: pages stream from disk
            micro.engine.make_cold()
            micro.run()              # cold again, different clock offsets
            micro.run()              # hot: zero-byte contrast sample
        samples.extend(samples_from_trace(tracer.trace()))

    fitted = fit_coefficients(samples)
    merged = dict(DEFAULT_COST_MODEL.coefficients)
    merged.update(fitted)
    return CostModel(coefficients=tuple(sorted(merged.items())),
                     source="calibrated")


# ---------------------------------------------------------------------------
# Cardinality estimation
# ---------------------------------------------------------------------------

class CardinalityEstimator:
    """Row-count estimates from the statistics catalogue.

    Falls back to catalogue-free heuristics (actual base-table row
    counts, System R selectivities) when a table was never ANALYZEd —
    the optimizer degrades gracefully rather than refusing to plan.
    """

    def __init__(self, database: Database,
                 stats: Optional[StatisticsCatalog] = None):
        self.database = database
        self.stats = stats

    def _table_stats(self, table: str):
        if self.stats is None:
            return None
        return self.stats.table(table)

    def base_rows(self, table: str) -> float:
        stats = self._table_stats(table)
        if stats is not None:
            return float(stats.n_rows)
        return float(self.database.table(table).n_rows)

    def row_bytes(self, table: str) -> float:
        stats = self._table_stats(table)
        if stats is not None:
            return float(stats.row_bytes)
        t = self.database.table(table)
        return float(t.bytes_used) / max(1, t.n_rows)

    def selectivity(self, table: str,
                    conjuncts: Sequence[Expr]) -> float:
        """Combined selectivity of *conjuncts* over one table, using
        the exponential-backoff independence correction."""
        if not conjuncts:
            return 1.0
        stats = self._table_stats(table)
        factors = [predicate_selectivity(c, stats) for c in conjuncts]
        return combine_conjuncts(factors)

    def scan_rows(self, table: str,
                  conjuncts: Sequence[Expr]) -> float:
        """Estimated rows surviving *conjuncts* over a base table.

        An observed cardinality recorded for exactly this
        table/conjunct shape (q-error feedback,
        :mod:`repro.db.feedback`) overrides the model-based estimate.
        """
        if self.stats is not None and conjuncts:
            hint = self.stats.hint(scan_signature(table, conjuncts))
            if hint is not None:
                return hint
        return self.base_rows(table) * self.selectivity(table, conjuncts)

    def join_observed(self, tables) -> Optional[float]:
        """The observed cardinality for a join over *tables*, if one
        was recorded by a feedback round; ``None`` otherwise."""
        if self.stats is None:
            return None
        return self.stats.hint(join_signature(tables))

    def ndv(self, table: str, column: str) -> float:
        """Distinct values of a column; defaults to the row count (the
        safe unique-key assumption for join estimation)."""
        stats = self._table_stats(table)
        if stats is not None:
            return float(stats.ndv(column))
        t = self.database.table(table)
        if not t.has_column(column):
            raise PlanError(
                f"cannot estimate NDV: {table!r} has no column {column!r}")
        return float(max(1, t.n_rows))

    @staticmethod
    def join_rows(rows_left: float, rows_right: float,
                  ndv_left: float, ndv_right: float) -> float:
        """Classic equi-join estimate: |L|*|R| / max(V(L,a), V(R,b)).

        NDVs are capped at their side's cardinality (a filter cannot
        leave more distinct keys than rows).
        """
        if rows_left <= 0.0 or rows_right <= 0.0:
            return 0.0
        v_left = max(1.0, min(ndv_left, rows_left))
        v_right = max(1.0, min(ndv_right, rows_right))
        return rows_left * rows_right / max(v_left, v_right)
