"""Unit tests for the vectorized kernel library (repro.db.kernels)."""

import numpy as np
import pytest

from repro.db import kernels
from repro.db.expressions import ColumnRef, Comparison, Expr, Literal
from repro.errors import PlanError


class TestSelBatch:
    def base(self):
        return {"a": np.arange(10, dtype=np.int64),
                "b": np.arange(10, dtype=np.float64) * 2.0}

    def test_rows_and_contains(self):
        sb = kernels.SelBatch(self.base(), np.array([1, 3, 5]))
        assert sb.rows() == 3
        assert len(sb) == 2  # column count, dict-like
        assert "a" in sb and "z" not in sb
        assert sorted(sb) == ["a", "b"]

    def test_materialize_dict_passthrough(self):
        base = self.base()
        assert kernels.materialize(base) is base

    def test_materialize_gathers_all_columns(self):
        sb = kernels.SelBatch(self.base(), np.array([2, 4]))
        out = kernels.materialize(sb)
        np.testing.assert_array_equal(out["a"], [2, 4])
        np.testing.assert_array_equal(out["b"], [4.0, 8.0])

    def test_split_batch(self):
        base = self.base()
        assert kernels.split_batch(base) == (base, None)
        sel = np.array([1])
        got_base, got_sel = kernels.split_batch(
            kernels.SelBatch(base, sel))
        assert got_base is base and got_sel is sel


class TestDictEncode:
    def test_dense_and_key_sorted(self):
        codes, n = kernels.dict_encode(
            [np.array([30, 10, 30, 20])])
        assert n == 3
        np.testing.assert_array_equal(codes, [2, 0, 2, 1])

    def test_composite_keys(self):
        codes, n = kernels.dict_encode(
            [np.array([1, 1, 2, 2]), np.array(["x", "y", "x", "x"])])
        assert n == 3
        assert codes[2] == codes[3] and codes[0] != codes[1]

    def test_requires_columns(self):
        with pytest.raises(PlanError):
            kernels.dict_encode([])


class TestJoinMatch:
    def test_left_major_duplicates(self):
        lc, rc = kernels.encode_join_keys(
            [np.array([5, 7, 5])], [np.array([5, 5, 9])])
        li, ri = kernels.join_match(lc, rc)
        np.testing.assert_array_equal(li, [0, 0, 2, 2])
        np.testing.assert_array_equal(ri, [0, 1, 0, 1])

    def test_no_matches(self):
        lc, rc = kernels.encode_join_keys(
            [np.array([1, 2])], [np.array([3, 4])])
        li, ri = kernels.join_match(lc, rc)
        assert li.size == ri.size == 0

    def test_merge_match_agrees_on_sorted_input(self):
        rng = np.random.default_rng(3)
        left = np.sort(rng.integers(0, 40, size=200))
        right = np.sort(rng.integers(0, 40, size=150))
        li_m, ri_m = kernels.merge_match(left, right)
        lc, rc = kernels.encode_join_keys([left], [right])
        li_h, ri_h = kernels.join_match(lc, rc)
        np.testing.assert_array_equal(li_m, li_h)
        np.testing.assert_array_equal(ri_m, ri_h)


class TestGroupedReduce:
    def test_sum_min_max(self):
        ids = np.array([0, 1, 0, 1, 2])
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(
            kernels.grouped_reduce(vals, ids, 3, "sum"), [4.0, 6.0, 5.0])
        np.testing.assert_array_equal(
            kernels.grouped_reduce(vals, ids, 3, "min"), [1.0, 2.0, 5.0])
        np.testing.assert_array_equal(
            kernels.grouped_reduce(vals, ids, 3, "max"), [3.0, 4.0, 5.0])

    def test_zero_groups(self):
        out = kernels.grouped_reduce(np.zeros(0), np.zeros(0, np.int64),
                                     0, "sum")
        assert out.size == 0

    def test_non_dense_ids_rejected(self):
        with pytest.raises(PlanError, match="not dense"):
            kernels.grouped_reduce(np.array([1.0, 2.0]),
                                   np.array([0, 2]), 3, "sum")

    def test_unknown_op_rejected(self):
        with pytest.raises(PlanError, match="unknown grouped reduction"):
            kernels.grouped_reduce(np.zeros(1), np.zeros(1, np.int64),
                                   1, "median")

    def test_group_count_and_first_index(self):
        ids = np.array([1, 0, 1, 1])
        np.testing.assert_array_equal(kernels.group_count(ids, 2), [1, 3])
        np.testing.assert_array_equal(
            kernels.group_first_index(ids, 2), [1, 0])


class TestFirstOccurrenceOrder:
    def test_keeps_input_order(self):
        idx = kernels.first_occurrence_order(
            [np.array([7, 3, 7, 3, 9])])
        np.testing.assert_array_equal(idx, [0, 1, 4])

    def test_empty(self):
        assert kernels.first_occurrence_order(
            [np.empty(0, dtype=np.int64)]).size == 0


class TestExpressionCache:
    def test_hit_miss_counters(self):
        kernels.expression_cache_clear()
        expr = Comparison(op=">", left=ColumnRef("k"), right=Literal(5))
        fn1 = kernels.compile_expr(expr)
        fn2 = kernels.compile_expr(
            Comparison(op=">", left=ColumnRef("k"), right=Literal(5)))
        assert fn1 is fn2
        info = kernels.expression_cache_info()
        # Sub-expressions are compiled and cached too, so misses counts
        # one per distinct node; the re-compile is a single root hit.
        assert info["hits"] == 1 and info["misses"] >= 1
        assert info["size"] == info["misses"]
        kernels.expression_cache_clear()
        assert kernels.expression_cache_info() == {
            "hits": 0, "misses": 0, "size": 0}

    def test_unknown_node_raises_plan_error(self):
        class Mystery(Expr):
            pass

        with pytest.raises(PlanError, match="Mystery"):
            kernels.compile_expr(Mystery())
