"""Sort-based reference bodies of MiniDB's key kernels.

These are the comparison-sort implementations that
:mod:`repro.db.kernels` replaced with counting and radix work on dense
codes (``np.unique``, stable ``np.argsort`` and ``np.searchsorted``
sweeps, ``np.lexsort``).  ``tests/db/test_kernel_reference.py`` holds
the kernels to them exactly: same values, same dtype, same pair order.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np


def dict_encode(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, int]:
    codes = None
    for col in columns:
        inverse, n_uniques = _encode_column(np.asarray(col))
        if codes is None:
            codes = inverse
        else:
            codes = codes * np.int64(n_uniques) + inverse
            if n_uniques and codes.size \
                    and int(codes.max(initial=0)) > 2 ** 61:
                __, codes = np.unique(codes, return_inverse=True)
                codes = codes.astype(np.int64, copy=False)
    uniques, compact = np.unique(codes, return_inverse=True)
    return compact.astype(np.int64, copy=False), int(len(uniques))


def _encode_column(col: np.ndarray) -> Tuple[np.ndarray, int]:
    if col.dtype != object:
        uniques, inverse = np.unique(col, return_inverse=True)
        return inverse.astype(np.int64, copy=False), len(uniques)
    first: Dict[object, int] = {}
    inverse = np.fromiter((first.setdefault(v, len(first)) for v in col),
                          dtype=np.int64, count=len(col))
    values = list(first)
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[sorted(range(len(values)), key=values.__getitem__)] = \
        np.arange(len(values))
    return ranks[inverse], len(values)


def encode_join_keys(left_cols: Sequence[np.ndarray],
                     right_cols: Sequence[np.ndarray]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    n_left = len(left_cols[0])
    combined = [np.concatenate([np.asarray(l), np.asarray(r)])
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
    order = np.argsort(right_codes, kind="stable")
    sorted_right = right_codes[order]
    starts = np.searchsorted(sorted_right, left_codes, side="left")
    ends = np.searchsorted(sorted_right, left_codes, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    left_idx = np.repeat(np.arange(left_codes.size, dtype=np.int64), counts)
    first = np.cumsum(counts) - counts
    positions = np.repeat(starts - first, counts) \
        + np.arange(total, dtype=np.int64)
    return left_idx, order[positions]


def radix_partition(codes: np.ndarray, n_bits: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    n_partitions = 1 << n_bits
    partitions = codes & np.int64(n_partitions - 1)
    order = np.argsort(partitions, kind="stable").astype(np.int64)
    counts = np.bincount(partitions, minlength=n_partitions)
    offsets = np.zeros(n_partitions + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return order, offsets


def radix_join_match(left_codes: np.ndarray, right_codes: np.ndarray,
                     n_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    if n_bits <= 0:
        return join_match(left_codes, right_codes)
    left_order, left_offsets = radix_partition(left_codes, n_bits)
    right_order, right_offsets = radix_partition(right_codes, n_bits)
    left_parts: List[np.ndarray] = []
    right_parts: List[np.ndarray] = []
    for p in range(1 << n_bits):
        ls = left_order[left_offsets[p]:left_offsets[p + 1]]
        rs = right_order[right_offsets[p]:right_offsets[p + 1]]
        if ls.size == 0 or rs.size == 0:
            continue
        li, ri = join_match(left_codes[ls], right_codes[rs])
        left_parts.append(ls[li])
        right_parts.append(rs[ri])
    if not left_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    li = np.concatenate(left_parts)
    ri = np.concatenate(right_parts)
    order = np.lexsort((ri, li))
    return li[order], ri[order]


#: MIN and MAX skip NaN (SQL NULL), as the kernel's do.
_REDUCE_UFUNCS = {"sum": np.add, "min": np.fmin, "max": np.fmax}


def grouped_reduce(values: np.ndarray, group_ids: np.ndarray,
                   n_groups: int, op: str) -> np.ndarray:
    if n_groups == 0:
        return np.zeros(0, dtype=np.float64)
    order = np.argsort(group_ids, kind="stable")
    sorted_values = np.asarray(values, dtype=np.float64)[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(np.asarray(group_ids)[order])) + 1))
    return _REDUCE_UFUNCS[op].reduceat(sorted_values, starts)


def group_count(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    return np.bincount(group_ids, minlength=n_groups).astype(np.int64)


def group_first_index(group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    first = np.full(n_groups, group_ids.size, dtype=np.int64)
    np.minimum.at(first, group_ids, np.arange(group_ids.size, dtype=np.int64))
    return first
