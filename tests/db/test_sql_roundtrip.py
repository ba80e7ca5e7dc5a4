"""Property test: expression pretty-printing re-parses equivalently.

Every :class:`~repro.db.expressions.Expr` renders itself as SQL-ish text
via ``str()``.  For randomly generated predicate trees (over a known
schema, excluding DATE literals whose rendering is numeric), parsing
that text back and evaluating both trees on random data must agree —
the printer and the parser are inverse enough to trust EXPLAIN output.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import parse_select
from repro.db.expressions import (
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
)
from repro.db.kernels import compile_expr

COLUMNS = ("a", "b")
STRING_COLUMN = "s"


@st.composite
def numeric_atoms(draw):
    kind = draw(st.sampled_from(["col", "int"]))
    if kind == "col":
        return ColumnRef(draw(st.sampled_from(COLUMNS)))
    return Literal(draw(st.integers(min_value=-9, max_value=9)))


@st.composite
def numeric_exprs(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        return draw(numeric_atoms())
    op = draw(st.sampled_from(["+", "-", "*"]))
    return Arithmetic(op, draw(numeric_exprs(depth=depth + 1)),
                      draw(numeric_exprs(depth=depth + 1)))


@st.composite
def predicates(draw, depth=0):
    if depth >= 2:
        kind = "cmp"
    else:
        kind = draw(st.sampled_from(
            ["cmp", "between", "in", "like", "and", "or", "not"]))
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return Comparison(op, draw(numeric_exprs()), draw(numeric_exprs()))
    if kind == "between":
        return Between(draw(numeric_exprs()),
                       Literal(draw(st.integers(-9, 9))),
                       Literal(draw(st.integers(-9, 9))))
    if kind == "in":
        values = draw(st.lists(st.integers(-9, 9), min_size=1,
                               max_size=4))
        return InList(ColumnRef(draw(st.sampled_from(COLUMNS))),
                      tuple(values))
    if kind == "like":
        pattern = draw(st.text(
            alphabet="xy%_", min_size=1, max_size=4))
        return Like(ColumnRef(STRING_COLUMN), pattern)
    if kind == "not":
        return Not(draw(predicates(depth=depth + 1)))
    parts = draw(st.lists(predicates(depth=depth + 1), min_size=2,
                          max_size=3))
    return BoolOp("and" if kind == "and" else "or", tuple(parts))


def random_batch(rng_seed: int, n: int = 16):
    rng = np.random.default_rng(rng_seed)
    strings = np.empty(n, dtype=object)
    vocabulary = ["x", "xy", "yx", "xx", "y"]
    for i in range(n):
        strings[i] = vocabulary[rng.integers(len(vocabulary))]
    return {
        "a": rng.integers(-9, 10, n).astype(np.int64),
        "b": rng.integers(-9, 10, n).astype(np.int64),
        STRING_COLUMN: strings,
    }


def reparse(expr: Expr) -> Expr:
    statement = parse_select(f"SELECT a FROM t WHERE {expr}")
    return statement.where


class TestExpressionRoundTrip:
    @given(predicates(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, deadline=None)
    def test_printed_predicate_reparses_equivalently(self, expr, seed):
        batch = random_batch(seed)
        original = np.asarray(compile_expr(expr)(batch), dtype=bool)
        back = np.asarray(compile_expr(reparse(expr))(batch), dtype=bool)
        assert np.array_equal(original, back), str(expr)

    @given(numeric_exprs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=120, deadline=None)
    def test_printed_arithmetic_reparses_equivalently(self, expr, seed):
        batch = random_batch(seed)
        original = np.asarray(compile_expr(expr)(batch))
        back = np.asarray(compile_expr(reparse(
            Comparison("=", expr, Literal(0))).left)(batch))
        assert np.array_equal(original, back), str(expr)
