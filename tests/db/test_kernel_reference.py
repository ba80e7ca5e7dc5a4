"""The key kernels against their sort-based reference bodies.

Each kernel must reproduce :mod:`tests.db.kernel_reference` exactly:
the same codes, the same pair order, the same dtype.  Inputs are
seeded and sized to reach both sides of every fast path: key spans
inside and outside the presence bitmap's bound, code counts that need
one and two 16-bit radix passes, empty inputs, NULL (NaN) keys on both
sides of a join, coded string keys on one or two dictionaries and
radix bits 0-12.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.db import kernels
from repro.db.storage import Dictionary
from tests.db import kernel_reference as ref

SEEDED = settings(max_examples=100, deadline=None, derandomize=True)

#: Key column kinds: INT64, DATE, FLOAT64 with NaN (NULL), strings as
#: raw object arrays and as coded columns (dictionary codes, checked
#: against the reference on the decoded strings), and INT64 values at
#: the type's extremes (a span no bitmap can hold).
KINDS = ("int", "date", "float", "str", "coded", "extreme")

#: Value span per row.  The bitmap takes spans up to
#: ``kernels._BITMAP_SLOTS_PER_ROW`` slots a row; the rest are sorted.
SPANS = (0.05, 1.0, kernels._BITMAP_SLOTS_PER_ROW,
         kernels._BITMAP_SLOTS_PER_ROW + 0.5, 64.0)

seeds = st.integers(0, 2 ** 32 - 1)
rows = st.integers(0, 200)
key_kinds = st.lists(st.sampled_from(KINDS), min_size=1, max_size=3)
spans = st.sampled_from(SPANS)


def column(rng, kind, n, span_per_row):
    span = max(1, int(span_per_row * max(n, 1)))
    ints = rng.integers(0, span, size=n)
    if kind == "int":
        return ints - span // 2
    if kind == "date":
        return ints + 8_000  # days since 1970-01-01
    if kind == "float":
        values = ints * 0.25
        values[rng.random(n) < 0.1] = np.nan
        return values
    if kind == "str":
        return np.array([f"v{v}" for v in ints], dtype=object)
    if kind == "coded":
        return coded(np.array([f"v{v}" for v in ints], dtype=object))
    info = np.iinfo(np.int64)
    return rng.choice(np.array([info.min, -1, 0, 1, info.max]), size=n)


def coded(strings):
    """*strings* as a coded column over their own sorted dictionary."""
    values, codes = np.unique(strings, return_inverse=True)
    return Dictionary(values=values, codes=codes.astype(np.int64))


def decoded(cols):
    """What the reference sees: every coded column decoded."""
    return [np.asarray(c) for c in cols]


def columns(seed, n, kinds, span):
    rng = np.random.default_rng(seed)
    return [column(rng, kind, n, span) for kind in kinds]


def join_inputs(seed, n_left, n_right, kinds, span):
    """Key columns for both join sides, drawn from one value range so
    keys repeat within and across sides.  Coded keys share one
    dictionary under an even seed; under an odd seed each side gets a
    dictionary of its own, of the values that side holds."""
    both = columns(seed, n_left + n_right, kinds, span)
    sides = ([c[:n_left] for c in both], [c[n_left:] for c in both])
    if seed % 2 == 0:
        return sides
    return tuple([coded(np.asarray(c)) if isinstance(c, Dictionary) else c
                  for c in side] for side in sides)


def assert_same(got, want):
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f")


def assert_pairs(got, want):
    assert_same(got[0], want[0])
    assert_same(got[1], want[1])


@SEEDED
@given(seed=seeds, n=rows, kinds=key_kinds, span=spans)
def test_dict_encode(seed, n, kinds, span):
    cols = columns(seed, n, kinds, span)
    codes, n_codes = kernels.dict_encode(cols)
    want, n_want = ref.dict_encode(decoded(cols))
    assert n_codes == n_want
    assert_same(codes, want)


@SEEDED
@given(seed=seeds, n_left=rows, n_right=rows, kinds=key_kinds,
       span=spans, bits=st.integers(0, 12))
@example(seed=5, n_left=70_000, n_right=70_000, kinds=["int"],
         span=4.0, bits=0)  # over 2**16 codes: two radix passes
@example(seed=6, n_left=70_000, n_right=70_000, kinds=["int"],
         span=4.0, bits=12)
@example(seed=7, n_left=0, n_right=0, kinds=["float", "int"],
         span=1.0, bits=3)
@example(seed=11, n_left=200, n_right=150, kinds=["float"],
         span=0.05, bits=0)  # duplicate-heavy, NULLs on both sides
@example(seed=12, n_left=150, n_right=200, kinds=["int", "float"],
         span=0.05, bits=2)
@example(seed=13, n_left=40, n_right=60, kinds=["coded", "int"],
         span=1.0, bits=1)  # each side its own dictionary
@example(seed=14, n_left=0, n_right=30, kinds=["coded"], span=0.05,
         bits=0)  # one shared dictionary
def test_join_kernels(seed, n_left, n_right, kinds, span, bits):
    left, right = join_inputs(seed, n_left, n_right, kinds, span)
    left_codes, right_codes = kernels.encode_join_keys(left, right)
    want_left, want_right = ref.encode_join_keys(decoded(left),
                                                 decoded(right))
    assert_same(left_codes, want_left)
    assert_same(right_codes, want_right)
    assert_pairs(kernels.join_match(left_codes, right_codes),
                 ref.join_match(want_left, want_right))
    assert_pairs(kernels.radix_partition(left_codes, bits),
                 ref.radix_partition(want_left, bits))
    assert_pairs(kernels.radix_join_match(left_codes, right_codes, bits),
                 ref.radix_join_match(want_left, want_right, bits))


@SEEDED
@given(seed=seeds, n=rows, kinds=key_kinds, span=spans)
@example(seed=8, n=70_000, kinds=["int"], span=64.0)  # > 2**16 groups
@example(seed=9, n=0, kinds=["str"], span=1.0)
def test_group_kernels(seed, n, kinds, span):
    ids, n_groups = ref.dict_encode(decoded(columns(seed, n, kinds, span)))
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    values[rng.random(n) < 0.2] = np.nan  # NULLs
    grouping = kernels.group_order(ids, n_groups)
    order, starts = grouping
    for op in ("sum", "min", "max"):
        want = ref.grouped_reduce(values, ids, n_groups, op)
        assert_same(kernels.grouped_reduce(values, ids, n_groups, op), want)
        assert_same(kernels.grouped_reduce(values, ids, n_groups, op,
                                           grouping), want)
    assert_same(kernels.group_count(ids, n_groups),
                ref.group_count(ids, n_groups))
    first = ref.group_first_index(ids, n_groups)
    assert_same(kernels.group_first_index(ids, n_groups), first)
    assert_same(order[starts], first)
