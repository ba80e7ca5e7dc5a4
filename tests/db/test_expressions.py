"""Tests for the expression AST and its compiled evaluation, including
numpy-oracle property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Arithmetic,
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    DataType,
    InList,
    Like,
    Literal,
    Not,
    conjoin,
    date_literal,
    estimate_selectivity,
    split_conjuncts,
)
from repro.db.kernels import compile_expr
from repro.errors import PlanError, TypeMismatchError

SCHEMA = {"a": DataType.INT64, "b": DataType.FLOAT64,
          "s": DataType.STRING, "d": DataType.DATE}


def batch(n=4):
    return {
        "a": np.array([1, 2, 3, 4], dtype=np.int64)[:n],
        "b": np.array([0.5, 1.5, 2.5, 3.5])[:n],
        "s": np.array(["foo", "bar", "foobar", "baz"], dtype=object)[:n],
        "d": np.array([0, 10, 20, 30], dtype=np.int64)[:n],
    }


class TestColumnRefAndLiteral:
    def test_column_lookup(self):
        assert list(compile_expr(ColumnRef("a"))(batch())) == [1, 2, 3, 4]

    def test_missing_column(self):
        with pytest.raises(PlanError):
            compile_expr(ColumnRef("zzz"))(batch())

    def test_dtype(self):
        assert ColumnRef("s").dtype(SCHEMA) is DataType.STRING
        with pytest.raises(PlanError):
            ColumnRef("zzz").dtype(SCHEMA)

    def test_literal_broadcast(self):
        values = compile_expr(Literal(7))(batch())
        assert list(values) == [7, 7, 7, 7]

    def test_string_literal(self):
        values = compile_expr(Literal("x"))(batch())
        assert list(values) == ["x"] * 4

    def test_date_literal(self):
        lit = date_literal("1970-01-11")
        assert lit.value == 10
        assert lit.dtype(SCHEMA) is DataType.DATE


class TestArithmetic:
    def test_add(self):
        expr = Arithmetic("+", ColumnRef("a"), Literal(10))
        assert list(compile_expr(expr)(batch())) == [11, 12, 13, 14]

    def test_division_is_float_and_safe(self):
        # Division by zero is NULL (NaN), as in SQL, not an error.
        expr = Arithmetic("/", ColumnRef("a"), Literal(0))
        assert np.isnan(compile_expr(expr)(batch())).all()
        assert expr.dtype(SCHEMA) is DataType.FLOAT64

    def test_mixed_int_float(self):
        expr = Arithmetic("*", ColumnRef("a"), ColumnRef("b"))
        assert expr.dtype(SCHEMA) is DataType.FLOAT64

    def test_string_arithmetic_rejected(self):
        expr = Arithmetic("+", ColumnRef("s"), Literal(1))
        with pytest.raises(TypeMismatchError):
            expr.dtype(SCHEMA)

    def test_unknown_op(self):
        with pytest.raises(PlanError):
            Arithmetic("%", ColumnRef("a"), Literal(1))

    def test_str(self):
        expr = Arithmetic("-", Literal(1), ColumnRef("b"))
        assert str(expr) == "(1 - b)"


class TestComparisonsAndBool:
    def test_less_than(self):
        mask = compile_expr(Comparison("<", ColumnRef("a"), Literal(3)))(
            batch())
        assert list(mask) == [True, True, False, False]

    def test_string_equality(self):
        mask = compile_expr(Comparison("=", ColumnRef("s"), Literal("bar")))(
            batch())
        assert list(mask) == [False, True, False, False]

    def test_cross_type_comparison_rejected(self):
        with pytest.raises(TypeMismatchError):
            Comparison("=", ColumnRef("s"), Literal(1)).dtype(SCHEMA)

    def test_column_to_column(self):
        mask = compile_expr(Comparison(">", ColumnRef("b"), ColumnRef("a")))(
            batch())
        assert list(mask) == [False, False, False, False]

    def test_and_or_not(self):
        p = BoolOp("and", (
            Comparison(">", ColumnRef("a"), Literal(1)),
            Comparison("<", ColumnRef("a"), Literal(4))))
        assert list(compile_expr(p)(batch())) == [False, True, True, False]
        q = BoolOp("or", (
            Comparison("=", ColumnRef("a"), Literal(1)),
            Comparison("=", ColumnRef("a"), Literal(4))))
        assert list(compile_expr(q)(batch())) == [True, False, False, True]
        assert list(compile_expr(Not(q))(batch())) == \
            [False, True, True, False]

    def test_boolop_needs_two_parts(self):
        with pytest.raises(PlanError):
            BoolOp("and", (Literal(1),))

    def test_between(self):
        p = Between(ColumnRef("a"), Literal(2), Literal(3))
        assert list(compile_expr(p)(batch())) == [False, True, True, False]

    def test_in_list(self):
        p = InList(ColumnRef("s"), ("foo", "baz"))
        assert list(compile_expr(p)(batch())) == [True, False, False, True]
        with pytest.raises(PlanError):
            InList(ColumnRef("s"), ())

    def test_like(self):
        assert list(compile_expr(Like(ColumnRef("s"), "foo%"))(batch())) \
            == [True, False, True, False]
        assert list(compile_expr(Like(ColumnRef("s"), "ba_"))(batch())) \
            == [False, True, False, True]
        assert list(compile_expr(Like(ColumnRef("s"), "%oba%"))(batch())) \
            == [False, False, True, False]

    def test_like_escapes_regex_chars(self):
        data = {"s": np.array(["a.c", "abc"], dtype=object)}
        assert list(compile_expr(Like(ColumnRef("s"), "a.c"))(data)) == \
            [True, False]

    def test_like_requires_string(self):
        with pytest.raises(TypeMismatchError):
            Like(ColumnRef("a"), "x%").dtype(SCHEMA)

    def test_cost_categories(self):
        assert Like(ColumnRef("s"), "x%").cost_category() == "string"
        assert Comparison("=", ColumnRef("a"), Literal(1)).cost_category() \
            == "arithmetic"
        assert BoolOp("and", (
            Like(ColumnRef("s"), "x%"),
            Comparison("=", ColumnRef("a"), Literal(1)),
        )).cost_category() == "string"


class TestConjuncts:
    def test_split_flattens_nested_ands(self):
        a = Comparison("=", ColumnRef("a"), Literal(1))
        b = Comparison("=", ColumnRef("b"), Literal(2.0))
        c = Comparison("=", ColumnRef("s"), Literal("x"))
        expr = BoolOp("and", (BoolOp("and", (a, b)), c))
        assert split_conjuncts(expr) == (a, b, c)

    def test_split_keeps_or_whole(self):
        a = Comparison("=", ColumnRef("a"), Literal(1))
        b = Comparison("=", ColumnRef("a"), Literal(2))
        expr = BoolOp("or", (a, b))
        assert split_conjuncts(expr) == (expr,)

    def test_conjoin_round_trip(self):
        a = Comparison("=", ColumnRef("a"), Literal(1))
        b = Comparison("=", ColumnRef("b"), Literal(2.0))
        assert split_conjuncts(conjoin([a, b])) == (a, b)
        assert conjoin([a]) is a
        with pytest.raises(PlanError):
            conjoin([])


class TestSelectivity:
    def test_equality_tighter_than_range(self):
        eq = Comparison("=", ColumnRef("a"), Literal(1))
        lt = Comparison("<", ColumnRef("a"), Literal(1))
        assert estimate_selectivity(eq) < estimate_selectivity(lt)

    def test_and_multiplies(self):
        a = Comparison("=", ColumnRef("a"), Literal(1))
        both = BoolOp("and", (a, a))
        assert estimate_selectivity(both) == pytest.approx(0.01)

    def test_or_bounded_by_one(self):
        a = Comparison("<", ColumnRef("a"), Literal(1))
        expr = BoolOp("or", tuple([a] * 5))
        assert estimate_selectivity(expr) <= 1.0

    def test_not_complements(self):
        a = Comparison("=", ColumnRef("a"), Literal(1))
        assert estimate_selectivity(Not(a)) == pytest.approx(0.9)


@st.composite
def int_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    values = draw(st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=n, max_size=n))
    return np.asarray(values, dtype=np.int64)


class TestOracleProperties:
    @given(int_arrays(), st.integers(min_value=-50, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_comparison_matches_python(self, values, threshold):
        mask = compile_expr(
            Comparison("<", ColumnRef("a"), Literal(threshold)))({"a": values})
        expected = [v < threshold for v in values]
        assert list(mask) == expected

    @given(int_arrays(), st.integers(min_value=-50, max_value=50),
           st.integers(min_value=-50, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_between_matches_python(self, values, low, high):
        mask = compile_expr(Between(ColumnRef("a"), Literal(low),
                                    Literal(high)))({"a": values})
        expected = [low <= v <= high for v in values]
        assert list(mask) == expected
