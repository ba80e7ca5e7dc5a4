"""Zone-map pruning: block verdicts for pushed-down predicates.

A scan holding a pushed-down predicate asks this module which zone-map
blocks can be skipped *before touching data*.  Every block gets one of
three verdicts:

- :data:`PRUNE_NONE` — the zone map proves no row in the block can
  match; the scan skips its I/O and CPU entirely;
- :data:`PRUNE_ALL` — the zone map proves every row matches (requires a
  NULL-free block: ``NaN`` compares false under every predicate);
- :data:`PRUNE_SOME` — undecidable from min/max alone; the block is
  read and filtered normally.

Verdicts are conservative: an unsupported conjunct shape degrades to
``SOME`` (never wrong results, only missed pruning), and a conjunction
combines per-conjunct verdicts with ``min`` — any ``NONE`` wins, ``ALL``
needs every conjunct to prove it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.db.expressions import (
    FLIPPED_OPS,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    split_conjuncts,
)
from repro.db.storage import ZONE_BLOCK_ROWS, Table, ZoneEntry, ZoneMap

PRUNE_NONE = 0
PRUNE_SOME = 1
PRUNE_ALL = 2


def _column_literal(expr: Comparison) -> Optional[Tuple[str, str, object]]:
    """Normalise a comparison to ``(column, op, literal_value)``."""
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        return expr.left.name, expr.op, expr.right.value
    if isinstance(expr.left, Literal) and isinstance(expr.right, ColumnRef):
        return expr.right.name, FLIPPED_OPS[expr.op], expr.left.value
    return None


def _cmp_verdict(entry: ZoneEntry, op: str, value) -> int:
    """Verdict of ``column OP value`` for one block."""
    lo, hi = entry.lo, entry.hi
    if lo is None:
        # All-NULL (or empty) block: every comparison is false.
        return PRUNE_NONE
    no_nulls = entry.null_count == 0
    try:
        if op == "<":
            if lo >= value:
                return PRUNE_NONE
            if hi < value and no_nulls:
                return PRUNE_ALL
        elif op == "<=":
            if lo > value:
                return PRUNE_NONE
            if hi <= value and no_nulls:
                return PRUNE_ALL
        elif op == ">":
            if hi <= value:
                return PRUNE_NONE
            if lo > value and no_nulls:
                return PRUNE_ALL
        elif op == ">=":
            if hi < value:
                return PRUNE_NONE
            if lo >= value and no_nulls:
                return PRUNE_ALL
        elif op == "=":
            if value < lo or value > hi:
                return PRUNE_NONE
            if lo == hi == value and no_nulls:
                return PRUNE_ALL
        elif op == "<>":
            if lo == hi == value:
                return PRUNE_NONE
            if (value < lo or value > hi) and no_nulls:
                return PRUNE_ALL
    except TypeError:
        # Incomparable literal/column domains: never prune on them.
        return PRUNE_SOME
    return PRUNE_SOME


def _conjunct_verdicts(table: Table, conjunct: Expr
                       ) -> Optional[np.ndarray]:
    """Per-block verdicts of one conjunct, or None when unsupported."""
    if isinstance(conjunct, Comparison):
        normalised = _column_literal(conjunct)
        if normalised is None or not table.has_column(normalised[0]):
            return None
        column, op, value = normalised
        if op == "=":
            dictionary = table.column(column).dictionary
            if dictionary is not None and dictionary.code_for(value) is None:
                # Dictionary miss: the value exists nowhere in the column.
                zone = table.zone_map(column)
                return np.full(zone.n_blocks, PRUNE_NONE, dtype=np.int8)
        zone = table.zone_map(column)
        return np.asarray([_cmp_verdict(e, op, value)
                           for e in zone.entries], dtype=np.int8)
    if isinstance(conjunct, Between) and \
            isinstance(conjunct.expr, ColumnRef) and \
            isinstance(conjunct.low, Literal) and \
            isinstance(conjunct.high, Literal):
        column = conjunct.expr.name
        if not table.has_column(column):
            return None
        zone = table.zone_map(column)
        low = np.asarray([_cmp_verdict(e, ">=", conjunct.low.value)
                          for e in zone.entries], dtype=np.int8)
        high = np.asarray([_cmp_verdict(e, "<=", conjunct.high.value)
                           for e in zone.entries], dtype=np.int8)
        return np.minimum(low, high)
    if isinstance(conjunct, InList) and \
            isinstance(conjunct.expr, ColumnRef):
        column = conjunct.expr.name
        if not table.has_column(column):
            return None
        zone = table.zone_map(column)
        per_value = [
            np.asarray([_cmp_verdict(e, "=", value)
                        for e in zone.entries], dtype=np.int8)
            for value in conjunct.values]
        # IN is a disjunction: a block prunes only when every value
        # does; it is all-true when any single value proves ALL.
        return np.maximum.reduce(per_value)
    return None


def block_verdicts(table: Table, predicate: Expr
                   ) -> Optional[np.ndarray]:
    """Per-block verdicts of *predicate* over *table*'s zone maps.

    Returns None when no conjunct has a zone-map-usable shape (the scan
    then behaves exactly as if zone maps did not exist).
    """
    if table.n_rows == 0:
        return None
    combined: Optional[np.ndarray] = None
    supported = False
    for conjunct in split_conjuncts(predicate):
        verdicts = _conjunct_verdicts(table, conjunct)
        if verdicts is None:
            # Unknown conjunct caps the proof at SOME but cannot turn a
            # NONE from another conjunct back into a candidate block.
            verdicts_arr = np.full(table.n_blocks, PRUNE_SOME,
                                   dtype=np.int8)
        else:
            supported = True
            verdicts_arr = verdicts
        combined = verdicts_arr if combined is None \
            else np.minimum(combined, verdicts_arr)
    if not supported:
        return None
    return combined


def surviving_rows(table: Table,
                   verdicts: np.ndarray) -> Optional[np.ndarray]:
    """Row indices of non-pruned blocks, or None when nothing prunes."""
    if not bool((verdicts == PRUNE_NONE).any()):
        return None
    keep: List[np.ndarray] = []
    for block, verdict in enumerate(verdicts):
        if verdict == PRUNE_NONE:
            continue
        start = block * ZONE_BLOCK_ROWS
        stop = min(start + ZONE_BLOCK_ROWS, table.n_rows)
        keep.append(np.arange(start, stop, dtype=np.int64))
    if not keep:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(keep)


__all__ = [
    "PRUNE_ALL",
    "PRUNE_NONE",
    "PRUNE_SOME",
    "ZoneMap",
    "block_verdicts",
    "surviving_rows",
]
