"""Table/column statistics: the optimizer's view of the data.

The tutorial's core prescription — *measure, model, then let the model
drive decisions* — starts here: an ``ANALYZE``-style pass scans every
table once and records per-column row counts, distinct-value counts
(NDV), min/max bounds, and equi-width histograms.  The cost-based
optimizer (:mod:`repro.db.optimizer`, :mod:`repro.db.costmodel`) builds
cardinality estimates from these, and E25 measures how far those
estimates drift from the observed row counts (the q-error study).

Statistics are *versioned* exactly like the DDL and index catalogues:
:class:`StatisticsCatalog.version` is part of the engine's plan-cache
key, so refreshing statistics invalidates every cached plan that was
built from the stale snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.db.expressions import (
    FLIPPED_OPS,
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Like,
    Literal,
    Not,
    estimate_selectivity,
)
from repro.db.storage import Database, Table
from repro.db.types import DataType
from repro.errors import CatalogError

#: Default number of equi-width histogram buckets per numeric column.
DEFAULT_BUCKETS = 16

#: Selectivity floor: no predicate estimate goes below this, so chained
#: independence products can never collapse a cardinality to zero.
MIN_SELECTIVITY = 1e-6


@dataclass(frozen=True)
class Histogram:
    """Equi-width histogram over a numeric column.

    ``counts[i]`` holds the rows whose value falls into
    ``[lo + i*width, lo + (i+1)*width)`` (the last bucket is closed).
    """

    lo: float
    hi: float
    counts: Tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return int(sum(self.counts))

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / len(self.counts)

    @classmethod
    def build(cls, values: np.ndarray,
              n_buckets: int = DEFAULT_BUCKETS) -> "Histogram":
        if values.size == 0:
            return cls(lo=0.0, hi=0.0, counts=(0,) * max(1, n_buckets))
        lo = float(values.min())
        hi = float(values.max())
        if hi <= lo:
            # Constant column: one bucket carries everything.
            return cls(lo=lo, hi=lo, counts=(int(values.size),))
        counts, __ = np.histogram(values.astype(np.float64),
                                  bins=n_buckets, range=(lo, hi))
        return cls(lo=lo, hi=hi,
                   counts=tuple(int(c) for c in counts))

    def fraction_below(self, value: float) -> float:
        """Estimated fraction of rows strictly below *value*.

        Linear interpolation inside the bucket holding *value* — the
        classic equi-width assumption of uniformity within a bucket.
        """
        total = self.n_rows
        if total == 0:
            return 0.0
        if value <= self.lo:
            return 0.0
        if value > self.hi:
            return 1.0
        if self.hi == self.lo:
            return 0.0
        width = self.width
        bucket = min(int((value - self.lo) / width), len(self.counts) - 1)
        below = sum(self.counts[:bucket])
        inside = self.counts[bucket] * \
            ((value - (self.lo + bucket * width)) / width)
        return min(1.0, (below + inside) / total)

    def fraction_between(self, low: float, high: float) -> float:
        """Estimated fraction of rows in ``[low, high]``."""
        if high < low:
            return 0.0
        if high >= self.hi:
            return max(0.0, 1.0 - self.fraction_below(low))
        return max(0.0, self.fraction_below(high)
                   - self.fraction_below(low))


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column of one table."""

    name: str
    dtype: DataType
    n_rows: int
    n_distinct: int
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    histogram: Optional[Histogram] = None

    @classmethod
    def collect(cls, table: Table, name: str,
                n_buckets: int = DEFAULT_BUCKETS) -> "ColumnStats":
        column = table.column(name)
        data = column.data
        n = len(data)
        if column.dtype is DataType.STRING:
            ndv = len(set(data.tolist())) if n else 0
            return cls(name=name, dtype=column.dtype, n_rows=n,
                       n_distinct=ndv)
        values = data.astype(np.float64)
        ndv = int(np.unique(data).size) if n else 0
        return cls(name=name, dtype=column.dtype, n_rows=n,
                   n_distinct=ndv,
                   min_value=float(values.min()) if n else None,
                   max_value=float(values.max()) if n else None,
                   histogram=Histogram.build(values, n_buckets))

    # -- selectivity -------------------------------------------------------

    def selectivity_eq(self, value) -> float:
        """P(column = value): histogram bucket refined by NDV."""
        if self.n_rows == 0:
            return 0.0
        if self.n_distinct <= 0:
            return MIN_SELECTIVITY
        if self.histogram is not None and isinstance(value, (int, float)):
            v = float(value)
            if v < (self.min_value or 0.0) or v > (self.max_value or 0.0):
                return MIN_SELECTIVITY
        return max(MIN_SELECTIVITY, 1.0 / self.n_distinct)

    def selectivity_cmp(self, op: str, value) -> float:
        """P(column <op> value) for an ordering comparison."""
        if self.n_rows == 0:
            return 0.0
        if self.histogram is None or not isinstance(value, (int, float)):
            # Strings / unknown: System R rule of thumb.
            return 1 / 3
        v = float(value)
        below = self.histogram.fraction_below(v)
        in_range = (self.min_value is not None
                    and self.min_value <= v <= (self.max_value or v))
        at = self.selectivity_eq(value) if in_range else 0.0
        if op == "<":
            out = below
        elif op == "<=":
            out = below + at
        elif op == ">":
            out = 1.0 - below - at
        elif op == ">=":
            out = 1.0 - below
        else:  # pragma: no cover - guarded by caller
            out = 1 / 3
        return float(min(1.0, max(MIN_SELECTIVITY, out)))

    def selectivity_between(self, low, high) -> float:
        if self.n_rows == 0:
            return 0.0
        if self.histogram is None or not isinstance(low, (int, float)) \
                or not isinstance(high, (int, float)):
            return 0.25
        frac = self.histogram.fraction_between(float(low), float(high))
        return float(min(1.0, max(MIN_SELECTIVITY, frac)))


@dataclass(frozen=True)
class TableStats:
    """Statistics for one table: row count, width, per-column stats."""

    name: str
    n_rows: int
    row_bytes: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    @classmethod
    def collect(cls, table: Table,
                n_buckets: int = DEFAULT_BUCKETS) -> "TableStats":
        columns = {name: ColumnStats.collect(table, name, n_buckets)
                   for name in table.column_names}
        row_bytes = max(1, table.bytes_used // max(1, table.n_rows))
        return cls(name=table.name, n_rows=table.n_rows,
                   row_bytes=row_bytes, columns=columns)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)

    def ndv(self, name: str) -> int:
        """NDV of a column; falls back to the row count (unique key)."""
        stats = self.columns.get(name)
        if stats is None or stats.n_distinct <= 0:
            return max(1, self.n_rows)
        return stats.n_distinct


class StatisticsCatalog:
    """Registry of per-table statistics, versioned for plan caching.

    ``analyze`` re-collects statistics (all tables or a subset) and
    bumps :attr:`version`; the engine includes the version in its
    plan-cache key, so any cached plan built from stale statistics is
    re-planned on its next use (tested in
    ``tests/db/test_plan_cache.py``).
    """

    def __init__(self):
        self._tables: Dict[str, TableStats] = {}
        #: Bumped on every analyze; part of the plan-cache key.
        self.version = 0
        #: Cardinality correction hints from execution feedback
        #: (:mod:`repro.db.feedback`): plan-shape signature → observed
        #: row count.  Consulted by the
        #: :class:`~repro.db.costmodel.CardinalityEstimator` before the
        #: model-based estimate.
        self._hints: Dict[Tuple, float] = {}

    def analyze(self, database: Database,
                tables: Optional[Tuple[str, ...]] = None,
                n_buckets: int = DEFAULT_BUCKETS) -> Tuple[str, ...]:
        """Collect statistics for *tables* (default: all); returns the
        analyzed names.  Always bumps the version, even for a refresh
        that produced identical numbers — staleness is about *when* the
        statistics were taken, not their values."""
        names = tables if tables is not None else database.table_names
        for name in names:
            if not database.has_table(name):
                raise CatalogError(
                    f"cannot analyze unknown table {name!r}")
        for name in names:
            self._tables[name] = TableStats.collect(
                database.table(name), n_buckets)
        self.version += 1
        return tuple(names)

    def table(self, name: str) -> Optional[TableStats]:
        return self._tables.get(name)

    # -- execution feedback (q-error corrections) --------------------------

    def record_feedback(self, hints: Dict[Tuple, float]) -> int:
        """Fold observed cardinalities back in as correction hints.

        *hints* maps plan-shape signatures (see
        :mod:`repro.db.feedback`) to observed row counts.  Recording
        bumps :attr:`version` — corrections change estimates, so every
        cached plan built without them is stale, exactly like after an
        ANALYZE.  Returns the number of hints recorded.
        """
        if not hints:
            return 0
        for signature, rows in hints.items():
            self._hints[signature] = max(0.0, float(rows))
        self.version += 1
        return len(hints)

    def hint(self, signature: Tuple) -> Optional[float]:
        """The observed row count recorded for *signature*, if any."""
        return self._hints.get(signature)

    @property
    def n_hints(self) -> int:
        return len(self._hints)

    def clear_feedback(self) -> int:
        """Drop all correction hints (bumps the version when any were
        present); returns how many were dropped."""
        n = len(self._hints)
        if n:
            self._hints.clear()
            self.version += 1
        return n

    @property
    def analyzed_tables(self) -> Tuple[str, ...]:
        return tuple(sorted(self._tables))

    def __len__(self) -> int:
        return len(self._tables)


# ---------------------------------------------------------------------------
# Feedback signatures
# ---------------------------------------------------------------------------
#
# A correction hint must be addressable both at planning time (from the
# enumerator's table/conjunct bookkeeping) and at harvest time (from an
# executed plan tree), so the signature is built from order-insensitive
# structural parts only.  They live here — next to the catalogue that
# stores them — so neither the cost model nor the feedback harvester
# needs to import the other.

def expr_fingerprint(conjuncts) -> Tuple[str, ...]:
    """Order-insensitive structural fingerprint of a conjunct list."""
    return tuple(sorted(repr(c) for c in conjuncts))


def scan_signature(table: str, conjuncts) -> Tuple:
    """Signature of a filtered base-table scan."""
    return ("scan", table, expr_fingerprint(conjuncts))


def join_signature(tables) -> Tuple:
    """Signature of the join result over a set of base tables."""
    return ("join", tuple(sorted(tables)))


# ---------------------------------------------------------------------------
# Predicate selectivity from statistics
# ---------------------------------------------------------------------------

def _column_and_literal(expr: Comparison):
    """``(column_name, literal_value, op)`` for col-vs-literal shapes,
    normalising ``literal <op> column`` to the column-first form."""
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        return expr.left.name, expr.right.value, expr.op
    if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
        return expr.right.name, expr.left.value, FLIPPED_OPS[expr.op]
    return None


def predicate_selectivity(expr: Expr,
                          stats: Optional[TableStats]) -> float:
    """Estimated selectivity of *expr* over one table.

    Histogram/NDV-backed where statistics cover the referenced column;
    otherwise the System R rules of thumb
    (:func:`repro.db.expressions.estimate_selectivity`).

    Conjunctions apply the independence assumption with a documented
    *exponential-backoff correction cap* (SQL Server style): the
    conjunct selectivities are sorted ascending and combined as
    ``s0 * s1^(1/2) * s2^(1/4) * ...`` — each additional predicate
    contributes less, capping the compounding error of assuming
    independence between correlated columns.
    """
    if stats is None:
        return estimate_selectivity(expr)
    if isinstance(expr, Comparison):
        shaped = _column_and_literal(expr)
        if shaped is None:
            return estimate_selectivity(expr)
        column, value, op = shaped
        col_stats = stats.column(column)
        if col_stats is None:
            return estimate_selectivity(expr)
        if op == "=":
            return col_stats.selectivity_eq(value)
        if op == "<>":
            return max(MIN_SELECTIVITY,
                       1.0 - col_stats.selectivity_eq(value))
        return col_stats.selectivity_cmp(op, value)
    if isinstance(expr, Between):
        if isinstance(expr.expr, ColumnRef) \
                and isinstance(expr.low, Literal) \
                and isinstance(expr.high, Literal):
            col_stats = stats.column(expr.expr.name)
            if col_stats is not None:
                return col_stats.selectivity_between(
                    expr.low.value, expr.high.value)
        return estimate_selectivity(expr)
    if isinstance(expr, InList):
        if isinstance(expr.expr, ColumnRef):
            col_stats = stats.column(expr.expr.name)
            if col_stats is not None:
                total = sum(col_stats.selectivity_eq(v)
                            for v in expr.values)
                return float(min(1.0, max(MIN_SELECTIVITY, total)))
        return estimate_selectivity(expr)
    if isinstance(expr, Like):
        return estimate_selectivity(expr)
    if isinstance(expr, Not):
        return max(MIN_SELECTIVITY,
                   1.0 - predicate_selectivity(expr.child, stats))
    if isinstance(expr, BoolOp):
        factors = [predicate_selectivity(p, stats) for p in expr.parts]
        if expr.op == "and":
            return combine_conjuncts(factors)
        out = 0.0
        for f in factors:
            out = out + f - out * f
        return float(min(1.0, max(MIN_SELECTIVITY, out)))
    return estimate_selectivity(expr)


def combine_conjuncts(selectivities) -> float:
    """Independence with exponential backoff (the correction cap).

    ``s0 * s1^(1/2) * s2^(1/4) * ...`` over ascending selectivities;
    see :func:`predicate_selectivity` for the rationale.
    """
    factors = sorted(float(s) for s in selectivities)
    if not factors:
        return 1.0
    out = 1.0
    for i, s in enumerate(factors):
        out *= max(MIN_SELECTIVITY, min(1.0, s)) ** (0.5 ** i)
    return float(max(MIN_SELECTIVITY, min(1.0, out)))
