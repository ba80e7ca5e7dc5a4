"""Hash indexes and index scans for MiniDB.

A hash index maps key values of one column to row positions.  An
:class:`IndexScan` fetches only the pages holding matching rows through
the buffer pool's *random* read path — cheap for selective equality
predicates, worse than a sequential scan once selectivity grows (random
seeks cost more per page).  That crossover is a classic database
evaluation exercise, and the ablation benchmark
``benchmarks/bench_ablation_index.py`` plots it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.context import ExecutionContext
from repro.db.disk import PAGE_SIZE_BYTES
from repro.db.expressions import ColumnRef, Comparison, Expr, Literal
from repro.db.plan import Batch, PlanNode
from repro.db.storage import Table
from repro.db.types import DataType
from repro.errors import CatalogError


@dataclass(frozen=True)
class HashIndex:
    """An immutable hash index over one column of one table.

    ``positions`` maps each distinct key value to the sorted row
    positions holding it.  ``rows_per_page`` reflects the column-store
    layout used to translate row positions into page numbers.
    """

    table_name: str
    column_name: str
    positions: Dict[Any, np.ndarray]
    n_rows: int
    row_bytes: int

    @classmethod
    def build(cls, table: Table, column_name: str) -> "HashIndex":
        column = table.column(column_name)
        buckets: Dict[Any, List[int]] = {}
        for i, value in enumerate(column.data):
            buckets.setdefault(value, []).append(i)
        positions = {key: np.asarray(rows, dtype=np.int64)
                     for key, rows in buckets.items()}
        row_bytes = max(1, table.bytes_used // max(1, table.n_rows))
        return cls(table_name=table.name, column_name=column_name,
                   positions=positions, n_rows=table.n_rows,
                   row_bytes=row_bytes)

    @property
    def n_keys(self) -> int:
        return len(self.positions)

    def lookup(self, key: Any) -> np.ndarray:
        """Row positions holding *key* (empty array when absent)."""
        return self.positions.get(key, np.empty(0, dtype=np.int64))

    def pages_for_rows(self, rows: np.ndarray) -> Tuple[int, ...]:
        """Distinct page numbers the given row positions live on."""
        if rows.size == 0:
            return ()
        rows_per_page = max(1, PAGE_SIZE_BYTES // self.row_bytes)
        return tuple(sorted({int(r) // rows_per_page for r in rows}))

    def estimated_selectivity(self, key: Any) -> float:
        if self.n_rows == 0:
            return 0.0
        return len(self.lookup(key)) / self.n_rows


class IndexCatalog:
    """Registry of hash indexes, keyed by (table, column)."""

    def __init__(self):
        self._indexes: Dict[Tuple[str, str], HashIndex] = {}
        #: Bumped on create/drop; part of the plan-cache key, since an
        #: index change can flip the optimizer's access-path choice.
        self.version = 0

    def create(self, table: Table, column_name: str) -> HashIndex:
        key = (table.name, column_name)
        if key in self._indexes:
            raise CatalogError(
                f"index on {table.name}.{column_name} already exists")
        table.column(column_name)  # raises on unknown column
        index = HashIndex.build(table, column_name)
        self._indexes[key] = index
        self.version += 1
        return index

    def drop(self, table_name: str, column_name: str) -> None:
        key = (table_name, column_name)
        if key not in self._indexes:
            raise CatalogError(
                f"no index on {table_name}.{column_name}")
        del self._indexes[key]
        self.version += 1

    def find(self, table_name: str,
             column_name: str) -> Optional[HashIndex]:
        return self._indexes.get((table_name, column_name))

    def indexes_on(self, table_name: str) -> Tuple[HashIndex, ...]:
        return tuple(ix for (t, __), ix in sorted(self._indexes.items())
                     if t == table_name)


class IndexScan(PlanNode):
    """Fetch rows matching ``column = literal`` through a hash index.

    Touched pages are read via the buffer pool's random path (one seek
    per missed page), then the surviving rows are materialised.
    """

    category = "hash"

    def __init__(self, index: HashIndex, key: Any,
                 columns: Optional[Sequence[str]] = None):
        super().__init__()
        self.index = index
        self.key = key
        self.columns = tuple(columns) if columns is not None else None

    def name(self) -> str:
        cols = ", ".join(self.columns) if self.columns else "*"
        return (f"IndexScan({self.index.table_name}."
                f"{self.index.column_name} = {self.key!r}: {cols})")

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        table = ctx.database.table(self.index.table_name)
        names = self.columns if self.columns is not None \
            else table.column_names
        return {n: table.column(n).dtype for n in names}

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        return float(len(self.index.lookup(self.key)))

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        table = ctx.database.table(self.index.table_name)
        rows = self.index.lookup(self.key)
        pages = self.index.pages_for_rows(rows)
        if pages:
            ctx.buffer_pool.read_pages_random(
                table.name, table.bytes_used, pages)
        # Probe cost plus per-fetched-value materialisation.
        names = self.columns if self.columns is not None \
            else table.column_names
        ctx.charge_cpu("hash", ctx.costs.hash_probe_ns_per_row
                       * max(1, rows.size))
        ctx.charge_cpu("scan", ctx.costs.scan_ns_per_value
                       * rows.size * len(names))
        ctx.charge_tuples(rows.size)
        return {name: table.column(name).in_flight[rows] for name in names}


def try_index_scan(ctx_database, index_catalog: IndexCatalog,
                   table_name: str, predicate: Expr,
                   columns: Optional[Sequence[str]],
                   max_selectivity: float = 0.05
                   ) -> Optional[IndexScan]:
    """Return an IndexScan if the predicate is an indexable equality.

    The predicate must be ``ColumnRef = Literal`` (either order) on an
    indexed column, and the actual key selectivity must not exceed
    ``max_selectivity`` (beyond that a sequential scan wins — random
    page reads seek per page).
    """
    if not isinstance(predicate, Comparison) or predicate.op != "=":
        return None
    sides = (predicate.left, predicate.right)
    column_ref = next((s for s in sides if isinstance(s, ColumnRef)), None)
    literal = next((s for s in sides if isinstance(s, Literal)), None)
    if column_ref is None or literal is None:
        return None
    index = index_catalog.find(table_name, column_ref.name)
    if index is None:
        return None
    if index.estimated_selectivity(literal.value) > max_selectivity:
        return None
    return IndexScan(index, literal.value, columns=columns)
