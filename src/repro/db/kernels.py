"""Vectorized execution kernels for MiniDB.

These are the host implementation of every operator in
:mod:`repro.db.operators`, in the MonetDB/X100 column-at-a-time style.
The tutorial's contrast with tuple-at-a-time interpretation is charged
to the simulated clock as cost profiles
(:class:`~repro.db.context.CostProfile`); the host code is the same
under every profile.

Kernel inventory
----------------
Key kernels work on dense integer codes, so they count and radix-sort
instead of comparison-sorting: every order they need comes from one
stable LSD radix sort on 16-bit digits (NumPy's stable argsort of
``uint16`` keys is itself a radix sort), and each key set is sorted at
most once.

- :func:`dict_encode` — dictionary-encode one or more key columns into
  dense composite group ids, in ascending key order: integer and DATE
  columns, coded string columns (their dictionary codes) and composite
  codes are renumbered through a presence bitmap; FLOAT64 (NaN),
  too-sparse keys and any raw object array are sorted (``np.unique``);
- :func:`encode_join_keys` — the same encoding applied jointly to both
  sides of an equi-join, so equal keys get equal codes across sides;
- :func:`join_match` — equi-join matching emitting ``(left_idx,
  right_idx)`` gather arrays in left-major order: per-code counts and
  start offsets from ``np.bincount``/``np.cumsum`` over one radix order
  of the right codes;
- :func:`merge_match` — the already-sorted variant (no ordering pass);
- :func:`radix_join_match` — :func:`join_match` per radix partition;
- :func:`group_order` — the one stable order of rows by group id that
  an aggregation's reductions, counts and key rows all read;
- :func:`grouped_reduce` — grouped SUM/MIN/MAX via that order +
  ``np.add.reduceat`` / ``np.fmin.reduceat`` / ``np.fmax.reduceat``;
- :func:`group_count` / :func:`group_first_index` — per-group row
  counts (Aggregate counts NULL inputs with it) and first-occurrence
  rows;
- :func:`first_occurrence_order` — DISTINCT keeping first-occurrence
  row order;
- :func:`compile_expr` — expression compilation with a process-wide
  cache keyed by the (frozen, hashable) expression tree.

Selection vectors
-----------------
:class:`SelBatch` wraps a base batch plus a ``sel`` index array: a
filter that keeps 1% of rows produces a 1%-sized ``sel`` instead of
copying every column, under every cost profile.  Downstream
non-breaking operators compose with ``sel``; pipeline breakers (joins,
aggregation, sort, distinct) and the engine's materialisation phase
gather exactly once.  They gather through
:meth:`~repro.db.context.ExecutionContext.materialize`, which also
prices the gather; this module charges nothing.

Coded strings
-------------
A STRING column travels from the scans to the engine's root as a
*coded column*: a :class:`~repro.db.storage.Dictionary` holding the
row codes and the column's sorted values, so code order is value
order.  Key kernels rank the codes; a comparison with a string literal
compares codes against the literal's bounds in the dictionary; ``LIKE``
matches each distinct value once; two columns with different
dictionaries join through one merged dictionary.  Any other use
decodes first (``np.asarray``), and the engine decodes the result
columns once.

Every kernel runs under a ``maybe_span(..., category="kernel")`` so
traces and flamegraphs attribute execution time to individual kernels
(and the metrics registry counts ``spans.kernel``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.expressions import (
    ARITH_OPS,
    CMP_OPS,
    FLIPPED_OPS,
    Arithmetic,
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Like,
    Literal,
    Not,
    conjoin,
)
from repro.db.storage import Dictionary
from repro.db.types import DataType
from repro.errors import PlanError
from repro.obs import maybe_span

__all__ = [
    "SelBatch",
    "compile_expr",
    "dict_encode",
    "encode_join_keys",
    "expression_cache_clear",
    "expression_cache_info",
    "first_occurrence_order",
    "gather",
    "group_count",
    "group_first_index",
    "group_order",
    "grouped_reduce",
    "join_match",
    "materialize",
    "merge_match",
    "radix_bits_for",
    "radix_join_match",
    "radix_partition",
    "radix_passes",
    "split_batch",
]


# ---------------------------------------------------------------------------
# Selection vectors
# ---------------------------------------------------------------------------

class SelBatch:
    """A batch with a deferred selection: base columns plus a ``sel``
    index array of the surviving row positions (sorted ascending).

    Behaves enough like a ``Dict[str, np.ndarray]`` for the generic
    plan machinery (``in``, iteration, row counting) while postponing
    the per-column gather until a pipeline breaker calls
    :func:`materialize`.
    """

    __slots__ = ("base", "sel")

    def __init__(self, base: Dict[str, np.ndarray], sel: np.ndarray):
        self.base = base
        self.sel = np.asarray(sel, dtype=np.int64)

    def rows(self) -> int:
        return int(self.sel.size)

    def __contains__(self, name: str) -> bool:
        return name in self.base

    def __iter__(self) -> Iterator[str]:
        return iter(self.base)

    def __len__(self) -> int:
        return len(self.base)

    def bytes_used(self) -> int:
        """The selected rows' payload, as if gathered."""
        n = self.rows()
        return sum(n * (16 if arr.dtype == object else arr.itemsize)
                   for arr in self.base.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SelBatch({sorted(self.base)}, "
                f"sel={self.rows()}/{len(next(iter(self.base.values()), []))})")


def split_batch(batch) -> Tuple[Dict[str, np.ndarray],
                                Optional[np.ndarray]]:
    """``(base, sel)`` of any batch; ``sel`` is None when materialised."""
    if isinstance(batch, SelBatch):
        return batch.base, batch.sel
    return batch, None


def gather(base: Dict[str, np.ndarray], sel: np.ndarray,
           names: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
    """Materialise *sel* rows of *base* (all columns by default)."""
    if names is None:
        names = list(base)
    with maybe_span("kernel.gather", "kernel",
                    rows=int(sel.size), columns=len(names)):
        return {n: base[n][sel] for n in names}


def materialize(batch):
    """A plain dict batch: gathers once if *batch* carries a selection."""
    if isinstance(batch, SelBatch):
        return gather(batch.base, batch.sel)
    return batch


# ---------------------------------------------------------------------------
# Dictionary encoding and join matching
# ---------------------------------------------------------------------------

#: Widest key span renumbered through a presence bitmap, in slots per
#: input row.  The bitmap takes one byte a slot and its rank table eight
#: (touched only where values occur), so at 4 slots a row the bitmap
#: costs at most 36 bytes a row, about what the ``np.unique`` sort it
#: replaces allocates (~33).  Sparser keys are sorted instead, the only
#: path whose memory is bounded by the row count alone.
_BITMAP_SLOTS_PER_ROW = 4


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable ascending order of non-negative integer *keys* below
    *bound*: an LSD radix sort on 16-bit digits, least significant
    first (NumPy's stable argsort of ``uint16`` is itself a radix
    sort)."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while bound > 1 << shift:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _dense_rank(values: np.ndarray, span: int) -> Tuple[np.ndarray, int]:
    """``(ranks, n_distinct)`` of non-negative integers below *span*:
    each value's rank among the distinct values, via a presence bitmap."""
    present = np.zeros(span, dtype=bool)
    present[values] = True
    distinct = np.flatnonzero(present)
    rank = np.empty(span, dtype=np.int64)
    rank[distinct] = np.arange(distinct.size, dtype=np.int64)
    return rank[values], int(distinct.size)


def _compact(codes: np.ndarray, span: int) -> Tuple[np.ndarray, int]:
    """Dense ascending ranks of non-negative integer *codes* below
    *span*: a presence bitmap when the span is narrow, a sort otherwise."""
    if span <= _BITMAP_SLOTS_PER_ROW * codes.size:
        return _dense_rank(codes, span)
    uniques, inverse = np.unique(codes, return_inverse=True)
    return inverse.astype(np.int64, copy=False), int(len(uniques))


def dict_encode(columns: Sequence[np.ndarray]
                ) -> Tuple[np.ndarray, int]:
    """Dense composite codes for equal-length key columns.

    Returns ``(codes, n_codes)`` where ``codes[i]`` identifies the
    composite key of row ``i`` and every id in ``[0, n_codes)`` occurs.
    Ids are assigned in ascending composite-key order (NumPy's sort
    order per column), so grouped output produced from these codes is
    key-sorted.
    """
    if not columns:
        raise PlanError("dict_encode needs at least one key column")
    n = len(columns[0])
    with maybe_span("kernel.dict_encode", "kernel",
                    rows=n, keys=len(columns)):
        codes, span = _column_keys(columns[0])
        for col in columns[1:]:
            keys, key_span = _column_keys(col)
            if span * key_span > _BITMAP_SLOTS_PER_ROW * n:
                # Too wide for one bitmap at the end: rank both sides
                # first, so the product stays below n**2.
                codes, span = _compact(codes, span)
                keys, key_span = _compact(keys, key_span)
            # Mixed-radix product, ascending in the composite key.
            codes = codes * np.int64(key_span) + keys
            span *= key_span
        return _compact(codes, span)


def _column_keys(col) -> Tuple[np.ndarray, int]:
    """``(keys, span)``: one column as non-negative integers below
    *span* that ascend with its values.  A coded column gives its
    dictionary codes, and an integer (or DATE) column its offsets from
    its minimum when that span fits a presence bitmap; anything else is
    sorted into dense ranks."""
    if isinstance(col, Dictionary):
        return col.codes, col.n_values
    col = np.asarray(col)
    if col.dtype.kind in "iu" and col.size:
        low = int(col.min())
        span = int(col.max()) - low + 1
        if span <= _BITMAP_SLOTS_PER_ROW * col.size:
            return col - low, span
    uniques, inverse = np.unique(col, return_inverse=True)
    return inverse.astype(np.int64, copy=False), len(uniques)


def _comparable(left, right) -> Tuple[np.ndarray, np.ndarray]:
    """Two columns as arrays that compare as their values do.

    Two coded columns become codes into one sorted dictionary: their
    own codes when they share one, else each side's codes translated
    once into the merged dictionary of both.  Any other pair is
    decoded.
    """
    if not (isinstance(left, Dictionary) and isinstance(right, Dictionary)):
        return np.asarray(left), np.asarray(right)
    if left.values is right.values:
        return left.codes, right.codes
    merged = np.union1d(left.values, right.values)
    return (np.searchsorted(merged, left.values)[left.codes],
            np.searchsorted(merged, right.values)[right.codes])


def encode_join_keys(left_cols: Sequence[np.ndarray],
                     right_cols: Sequence[np.ndarray]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Comparable composite codes for the two sides of an equi-join.

    Each key position's left and right columns are concatenated before
    encoding, so a key value present on both sides maps to one code;
    coded columns are first put on one dictionary (:func:`_comparable`).
    A NULL (NaN) key equals nothing, not even another NULL: rows with a
    NULL in any key column get code -1 on the left and -2 on the right,
    which no row on the other side carries.
    """
    if len(left_cols) != len(right_cols) or not left_cols:
        raise PlanError(
            "join encoding needs equally many (>=1) keys on both sides")
    n_left = len(left_cols[0])
    combined = [np.concatenate(_comparable(l, r))
                for l, r in zip(left_cols, right_cols)]
    codes, __ = dict_encode(combined)
    null = np.zeros(len(codes), dtype=bool)
    for col in combined:
        if col.dtype.kind == "f":
            null |= np.isnan(col)
    left_codes, right_codes = codes[:n_left], codes[n_left:]
    left_codes[null[:n_left]] = -1
    right_codes[null[n_left:]] = -2
    return left_codes, right_codes


def join_match(left_codes: np.ndarray, right_codes: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """All (left, right) index pairs with equal codes, left-major.

    Codes must be dense non-negative integers (:func:`encode_join_keys`
    output): the per-code counts take memory linear in the largest code.
    A negative (NULL) code on either side matches nothing.  Output order
    is left-major: left indices ascending, and for one left row its
    matching right indices ascending (the stable radix order keeps
    equal codes in input order).
    """
    with maybe_span("kernel.join_match", "kernel",
                    left=int(left_codes.size),
                    right=int(right_codes.size)):
        # Key 0 collects the right side's NULL codes; no left row
        # probes it.
        keys = np.maximum(right_codes + 1, 0)
        n_keys = int(keys.max(initial=0)) + 1
        order = _stable_order(keys, n_keys)
        per_key = np.bincount(keys, minlength=n_keys)
        key_starts = np.cumsum(per_key) - per_key
        probe = left_codes + 1
        hit = (left_codes >= 0) & (probe < n_keys)
        probe = np.where(hit, probe, 0)
        counts = np.where(hit, per_key[probe], 0)
        starts = key_starts[probe]
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        left_idx = np.repeat(np.arange(left_codes.size, dtype=np.int64),
                             counts)
        first = np.cumsum(counts) - counts
        positions = np.repeat(starts - first, counts) \
            + np.arange(total, dtype=np.int64)
        right_idx = order[positions]
        return left_idx, right_idx


def merge_match(left_keys: np.ndarray, right_keys: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`join_match` for inputs already sorted on their keys.

    Skips the argsort pass: right-side runs are located directly with
    two binary-search sweeps over the sorted right keys.  A NULL (NaN)
    key matches nothing.
    """
    with maybe_span("kernel.merge_match", "kernel",
                    left=int(len(left_keys)),
                    right=int(len(right_keys))):
        left_keys = np.asarray(left_keys)
        starts = np.searchsorted(right_keys, left_keys, side="left")
        ends = np.searchsorted(right_keys, left_keys, side="right")
        counts = ends - starts
        if left_keys.dtype.kind == "f":
            counts[np.isnan(left_keys)] = 0
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64),
                             counts)
        first = np.cumsum(counts) - counts
        right_idx = np.repeat(starts - first, counts) \
            + np.arange(total, dtype=np.int64)
        return left_idx, right_idx


# ---------------------------------------------------------------------------
# Radix-partitioned join (Manegold/Boncz/Kersten-style)
# ---------------------------------------------------------------------------

#: Maximum useful fan-out per partitioning pass: one pass splits on at
#: most this many bits (the classic TLB/cache-line bound on scatter
#: targets); deeper splits take another pass over the data.
RADIX_BITS_PER_PASS = 8

#: Hard cap on total radix bits — beyond this the per-partition
#: bookkeeping dwarfs any locality win at the sizes MiniDB simulates.
MAX_RADIX_BITS = 14

#: Approximate hash-table bytes per build row (slot + entry), matching
#: the operator's ``aux_bytes`` accounting.
HASH_TABLE_BYTES_PER_ROW = 48


def radix_passes(n_bits: int) -> int:
    """Partitioning passes needed to split on ``n_bits`` bits."""
    if n_bits <= 0:
        return 0
    return -(-n_bits // RADIX_BITS_PER_PASS)


def radix_bits_for(n_build: int, cache_bytes: int,
                   bytes_per_row: int = HASH_TABLE_BYTES_PER_ROW) -> int:
    """Fewest radix bits making each partition's hash table fit cache."""
    if n_build <= 0 or cache_bytes <= 0:
        return 0
    bits = 0
    while bits < MAX_RADIX_BITS and \
            (n_build * bytes_per_row) >> bits > cache_bytes:
        bits += 1
    return bits


def radix_partition(codes: np.ndarray, n_bits: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Partition rows on the low ``n_bits`` bits of their key codes.

    Returns ``(order, offsets)``: ``order`` lists row indices grouped by
    partition (stable within each partition), ``offsets`` has
    ``2**n_bits + 1`` entries with partition *p* occupying
    ``order[offsets[p]:offsets[p + 1]]``.
    """
    if n_bits < 0 or n_bits > MAX_RADIX_BITS:
        raise PlanError(
            f"radix bits must be in [0, {MAX_RADIX_BITS}], got {n_bits}")
    n_partitions = 1 << n_bits
    with maybe_span("kernel.radix_partition", "kernel",
                    rows=int(codes.size), bits=n_bits,
                    passes=radix_passes(n_bits)):
        partitions = codes & np.int64(n_partitions - 1)
        order = _stable_order(partitions, n_partitions)
        counts = np.bincount(partitions, minlength=n_partitions)
        offsets = np.zeros(n_partitions + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return order, offsets


def radix_join_match(left_codes: np.ndarray, right_codes: np.ndarray,
                     n_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`join_match`, radix-partitioned on the low ``n_bits`` bits.

    Both sides are partitioned so equal codes land in the same
    partition; each partition is joined independently (its hash table is
    what fits in cache) and the pair list is restored to the canonical
    left-major order, making the output byte-identical to
    :func:`join_match`.  All of one left row's matches come from its
    own partition with right indices ascending, so a stable order on
    the left index alone restores that order.
    """
    if n_bits <= 0:
        return join_match(left_codes, right_codes)
    with maybe_span("kernel.radix_join_match", "kernel",
                    left=int(left_codes.size),
                    right=int(right_codes.size), bits=n_bits):
        left_order, left_offsets = radix_partition(left_codes, n_bits)
        right_order, right_offsets = radix_partition(right_codes, n_bits)
        left_parts: List[np.ndarray] = []
        right_parts: List[np.ndarray] = []
        for p in range(1 << n_bits):
            ls = left_order[left_offsets[p]:left_offsets[p + 1]]
            rs = right_order[right_offsets[p]:right_offsets[p + 1]]
            if ls.size == 0 or rs.size == 0:
                continue  # empty partition on either side: no matches
            # Codes in one partition share their low bits; shifting them
            # off keeps the codes dense (NULLs stay negative).
            li, ri = join_match(left_codes[ls] >> n_bits,
                                right_codes[rs] >> n_bits)
            left_parts.append(ls[li])
            right_parts.append(rs[ri])
        if not left_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        li = np.concatenate(left_parts)
        ri = np.concatenate(right_parts)
        order = _stable_order(li, left_codes.size)
        return li[order], ri[order]


# ---------------------------------------------------------------------------
# Grouped aggregation
# ---------------------------------------------------------------------------

#: MIN and MAX skip NaN (SQL NULL) unless a whole group is NaN.
_REDUCE_UFUNCS = {"sum": np.add, "min": np.fmin, "max": np.fmax}


def group_order(group_ids: np.ndarray, n_groups: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: the rows stably sorted by group id, and the
    position in ``order`` where each group begins.

    ``group_ids`` must be dense (:func:`dict_encode` output): every id
    in ``[0, n_groups)`` occurs at least once.  ``order[starts]`` is
    each group's first input row.
    """
    with maybe_span("kernel.group_order", "kernel",
                    rows=int(group_ids.size), groups=n_groups):
        counts = np.bincount(group_ids, minlength=n_groups)
        if counts.size != n_groups or not counts.all():
            raise PlanError(
                f"group ids are not dense: "
                f"{int(np.count_nonzero(counts))} distinct ids "
                f"for {n_groups} declared groups")
        return (_stable_order(group_ids, n_groups),
                np.cumsum(counts) - counts)


def grouped_reduce(values: np.ndarray, group_ids: np.ndarray,
                   n_groups: int, op: str,
                   grouping: Optional[Tuple[np.ndarray, np.ndarray]] = None
                   ) -> np.ndarray:
    """Per-group reduction via ``ufunc.reduceat`` over the rows in
    group order.

    *grouping* is :func:`group_order`'s result for ``group_ids``;
    callers reducing several columns by one grouping pass it so the
    rows are ordered once.  Without it the order is computed here.
    """
    try:
        ufunc = _REDUCE_UFUNCS[op]
    except KeyError:
        raise PlanError(
            f"unknown grouped reduction {op!r}; "
            f"known: {sorted(_REDUCE_UFUNCS)}") from None
    with maybe_span("kernel.grouped_reduce", "kernel",
                    rows=int(len(values)), groups=n_groups, op=op):
        if n_groups == 0:
            return np.zeros(0, dtype=np.float64)
        if grouping is None:
            grouping = group_order(np.asarray(group_ids), n_groups)
        order, starts = grouping
        return ufunc.reduceat(np.asarray(values, dtype=np.float64)[order],
                              starts)


def group_count(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group row counts as int64."""
    with maybe_span("kernel.group_count", "kernel",
                    rows=int(group_ids.size), groups=n_groups):
        return np.bincount(group_ids,
                           minlength=n_groups).astype(np.int64)


def group_first_index(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """The first input row index of each group (key materialisation)."""
    with maybe_span("kernel.group_first_index", "kernel",
                    rows=int(group_ids.size), groups=n_groups):
        first = np.full(n_groups, group_ids.size, dtype=np.int64)
        np.minimum.at(first, group_ids,
                      np.arange(group_ids.size, dtype=np.int64))
        return first


def first_occurrence_order(columns: Sequence[np.ndarray]
                           ) -> np.ndarray:
    """Row indices of the first occurrence of each distinct row,
    ascending — DISTINCT's output order."""
    n = len(columns[0]) if columns else 0
    with maybe_span("kernel.first_occurrence", "kernel", rows=n):
        if n == 0:
            return np.empty(0, dtype=np.int64)
        codes, n_codes = dict_encode(columns)
        return np.sort(group_first_index(codes, n_codes))


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

CompiledExpr = Callable[[Dict[str, np.ndarray]], np.ndarray]

_EXPR_CACHE: Dict[Expr, CompiledExpr] = {}
_expr_cache_hits = 0
_expr_cache_misses = 0


def expression_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the process-wide expression cache."""
    return {"hits": _expr_cache_hits, "misses": _expr_cache_misses,
            "size": len(_EXPR_CACHE)}


def expression_cache_clear() -> None:
    """Drop all compiled expressions and reset the counters (tests)."""
    global _expr_cache_hits, _expr_cache_misses
    _EXPR_CACHE.clear()
    _expr_cache_hits = 0
    _expr_cache_misses = 0


def compile_expr(expr: Expr) -> CompiledExpr:
    """A reusable ``batch -> ndarray`` evaluator for *expr*.

    This is MiniDB's one expression evaluator; the operators run
    nothing else.  Compilation resolves operator dispatch, literal
    dtypes and LIKE regexes once per distinct expression tree; repeated
    queries reuse the cached closure (expressions are frozen
    dataclasses, hence hashable and safe cache keys).  Its answers are
    checked against SQLite and against NumPy oracles.  A node type it
    does not know raises :class:`~repro.errors.PlanError`.
    """
    global _expr_cache_hits, _expr_cache_misses
    try:
        cached = _EXPR_CACHE.get(expr)
    except TypeError:  # unhashable literal payload: compile uncached
        return _build_compiled(expr)
    if cached is not None:
        _expr_cache_hits += 1
        return cached
    _expr_cache_misses += 1
    compiled = _build_compiled(expr)
    _EXPR_CACHE[expr] = compiled
    return compiled


def _build_compiled(expr: Expr) -> CompiledExpr:
    if isinstance(expr, ColumnRef):
        name = expr.name

        def read_column(batch, name=name):
            try:
                return batch[name]
            except KeyError:
                raise PlanError(
                    f"column {name!r} not in batch "
                    f"({sorted(batch)})") from None
        return read_column
    if isinstance(expr, Literal):
        value = expr.value
        dtype = expr.dtype({})  # a literal's type needs no schema

        def literal(batch, value=value, dtype=dtype):
            n = len(next(iter(batch.values()), ()))  # the batch's rows
            if dtype is DataType.STRING:
                out = np.empty(n, dtype=object)
                out[:] = value
                return out
            return np.full(n, value, dtype=dtype.numpy_dtype)
        return literal
    if isinstance(expr, Arithmetic):
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)
        if expr.op == "/":
            def divide(batch, left=left, right=right):
                # x / 0 is NULL (NaN), as in SQL.
                lv = left(batch)
                rv = right(batch)
                return np.divide(lv, rv,
                                 out=np.full(len(lv), np.nan),
                                 where=np.asarray(rv) != 0,
                                 casting="unsafe")
            return divide
        ufunc = ARITH_OPS[expr.op]
        return lambda batch: ufunc(left(batch), right(batch))
    if isinstance(expr, Comparison):
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)
        ufunc = _not_equal if expr.op == "<>" else CMP_OPS[expr.op]

        def compare(batch, left=left, right=right, ufunc=ufunc):
            return ufunc(*_comparable(left(batch), right(batch)))
        if _is_string_literal(expr.right):
            return _literal_comparison(left, expr.op, expr.right.value,
                                       compare)
        if _is_string_literal(expr.left):
            return _literal_comparison(right, FLIPPED_OPS[expr.op],
                                       expr.left.value, compare)
        return compare
    if isinstance(expr, BoolOp):
        parts = [compile_expr(p) for p in expr.parts]
        combine = np.logical_and if expr.op == "and" else np.logical_or

        def boolean(batch, parts=parts, combine=combine):
            out = np.asarray(parts[0](batch), dtype=bool)
            for part in parts[1:]:
                out = combine(out, np.asarray(part(batch), dtype=bool))
            return out
        return boolean
    if isinstance(expr, Not):
        return _false_rows(expr.child)
    if isinstance(expr, Between):
        value = compile_expr(expr.expr)
        low = compile_expr(expr.low)
        high = compile_expr(expr.high)

        def between(batch, value=value, low=low, high=high):
            v = np.asarray(value(batch))  # a coded column decodes here
            return np.logical_and(v >= low(batch), v <= high(batch))
        return between
    if isinstance(expr, InList):
        value = compile_expr(expr.expr)
        values = expr.values

        def in_list(batch, value=value, values=values):
            v = value(batch)
            probes = values
            if isinstance(v, Dictionary):
                # Each member's code, probed once; a member missing from
                # the dictionary (or not a string) matches no row.
                codes = (v.code_for(c) for c in values if isinstance(c, str))
                probes = [code for code in codes if code is not None]
                v = v.codes
            out = np.zeros(len(v), dtype=bool)
            for probe in probes:
                out |= (v == probe)
            return out
        return in_list
    if isinstance(expr, Like):
        value = compile_expr(expr.expr)
        pattern = expr._regex()  # compiled once, reused per batch

        def like(batch, value=value, pattern=pattern):
            v = value(batch)
            if not isinstance(v, Dictionary):
                return _like_rows(v, pattern)
            # Match each value present once, then index by code: at most
            # min(rows, dictionary values) regex calls.
            present, inverse = np.unique(v.codes, return_inverse=True)
            return _like_rows(v.values[present], pattern)[inverse]
        return like
    raise PlanError(
        f"cannot compile expression node {type(expr).__name__}")


def _like_rows(strings, pattern) -> np.ndarray:
    """Whether each string matches the compiled LIKE *pattern*."""
    return np.fromiter((pattern.match(s) is not None for s in strings),
                       dtype=bool, count=len(strings))


def _is_string_literal(expr: Expr) -> bool:
    return isinstance(expr, Literal) and isinstance(expr.value, str)


def _literal_comparison(column: CompiledExpr, op: str, value: str,
                        compare: CompiledExpr) -> CompiledExpr:
    """``column OP value`` for a string literal *value*: on the codes
    when the column arrives coded, else the generic *compare*."""
    def literal_comparison(batch):
        v = column(batch)
        if not isinstance(v, Dictionary):
            return compare(batch)
        # The literal's codes are [lo, hi): one code when the value is
        # in the dictionary, none (lo == hi) when it is not.
        lo = int(np.searchsorted(v.values, value, side="left"))
        hi = int(np.searchsorted(v.values, value, side="right"))
        codes = v.codes
        if op in ("=", "<>"):
            if lo == hi:
                return np.full(len(codes), op == "<>")
            return codes == lo if op == "=" else codes != lo
        if op == "<":
            return codes < lo
        if op == "<=":
            return codes < hi
        if op == ">":
            return codes >= hi
        return codes >= lo
    return literal_comparison


def _not_equal(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """SQL ``<>``: unlike ``np.not_equal``, false where a side is NULL."""
    out = np.not_equal(left, right)
    for side in (left, right):
        if side.dtype.kind == "f":
            out &= ~np.isnan(side)
    return out


#: ``a OP b`` is FALSE exactly where ``a NEGATED[OP] b`` is TRUE.
_NEGATED = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _false_rows(expr: Expr) -> CompiledExpr:
    """The rows where predicate *expr* is FALSE: what ``NOT expr`` keeps.

    SQL logic has three values.  A comparison with a NULL operand is
    UNKNOWN, neither TRUE nor FALSE, so NOT is not the complement of
    the TRUE rows.  The negation is pushed down instead, and what
    remains compiles as TRUE rows: a comparison flips its operator,
    AND and OR follow De Morgan's laws, BETWEEN becomes two strict
    comparisons and NOT IN a conjunction of ``<>``.
    """
    if isinstance(expr, Not):
        return compile_expr(expr.child)
    if isinstance(expr, Comparison):
        return compile_expr(
            Comparison(_NEGATED[expr.op], expr.left, expr.right))
    if isinstance(expr, BoolOp):
        return compile_expr(BoolOp("or" if expr.op == "and" else "and",
                                   tuple(Not(p) for p in expr.parts)))
    if isinstance(expr, Between):
        return compile_expr(BoolOp("or", (
            Comparison("<", expr.expr, expr.low),
            Comparison(">", expr.expr, expr.high))))
    if isinstance(expr, InList):
        return compile_expr(conjoin([
            Comparison("<>", expr.expr, Literal(value))
            for value in expr.values]))
    # LIKE (strings are never NULL) and plain values: the complement.
    child = compile_expr(expr)
    return lambda batch: np.logical_not(np.asarray(child(batch), dtype=bool))
