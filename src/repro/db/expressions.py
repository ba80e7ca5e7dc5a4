"""Expression AST: the typed tree a parsed query's expressions become.

Each node knows its result type, the columns it touches, a cost category
for the build model (``arithmetic`` vs ``string``), and a node count used
to charge interpretation CPU cost.  Nodes do not evaluate themselves:
:func:`repro.db.kernels.compile_expr` turns a tree into one closure over
column batches (a mapping of column name to numpy array), and that
closure is the only evaluator the operators run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping, Sequence, Tuple

import numpy as np

from repro.db.types import (
    DataType,
    common_numeric_type,
    date_to_days,
    literal_type,
)
from repro.errors import PlanError, TypeMismatchError

Schema = Mapping[str, DataType]


class Expr:
    """Base class for all expression nodes."""

    def dtype(self, schema: Schema) -> DataType:
        raise NotImplementedError

    def columns(self) -> FrozenSet[str]:
        raise NotImplementedError

    def cost_category(self) -> str:
        """Build-model category: ``'string'`` if any string work, else
        ``'arithmetic'``."""
        return "arithmetic"

    def node_count(self) -> int:
        return 1

    def __str__(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str

    def dtype(self, schema: Schema) -> DataType:
        try:
            return schema[self.name]
        except KeyError:
            raise PlanError(f"column {self.name!r} not in schema") from None

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expr):
    value: Any
    declared: DataType = None  # set for DATE literals

    def dtype(self, schema: Schema) -> DataType:
        return self.declared or literal_type(self.value)

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


def date_literal(iso_text: str) -> Literal:
    """A DATE literal stored as days-since-epoch."""
    return Literal(value=date_to_days(iso_text), declared=DataType.DATE)


#: Arithmetic operators and the ufuncs :func:`repro.db.kernels.
#: compile_expr` dispatches them to.
ARITH_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}


@dataclass(frozen=True)
class Arithmetic(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise PlanError(f"unknown arithmetic operator {self.op!r}")

    def dtype(self, schema: Schema) -> DataType:
        if self.op == "/":
            common_numeric_type(self.left.dtype(schema),
                                self.right.dtype(schema))
            return DataType.FLOAT64
        return common_numeric_type(self.left.dtype(schema),
                                   self.right.dtype(schema))

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def node_count(self) -> int:
        return 1 + self.left.node_count() + self.right.node_count()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


#: Comparison operators and their ufuncs, as for :data:`ARITH_OPS`.
CMP_OPS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

#: ``a OP b`` holds exactly where ``b FLIPPED_OPS[OP] a`` does: the
#: operator for ``literal OP column`` rewritten column-first.
FLIPPED_OPS = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<",
               ">=": "<="}


@dataclass(frozen=True)
class Comparison(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise PlanError(f"unknown comparison operator {self.op!r}")

    def dtype(self, schema: Schema) -> DataType:
        lt = self.left.dtype(schema)
        rt = self.right.dtype(schema)
        mixable = (lt == rt) or (lt.is_numeric and rt.is_numeric)
        if not mixable:
            raise TypeMismatchError(
                f"cannot compare {lt.value} with {rt.value} in {self}")
        return DataType.INT64  # boolean masks surface as int64 if projected

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def cost_category(self) -> str:
        if (self.left.cost_category() == "string"
                or self.right.cost_category() == "string"):
            return "string"
        return "arithmetic"

    def node_count(self) -> int:
        return 1 + self.left.node_count() + self.right.node_count()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str  # "and" | "or"
    parts: Tuple[Expr, ...]

    def __post_init__(self):
        if self.op not in ("and", "or"):
            raise PlanError(f"unknown boolean operator {self.op!r}")
        if len(self.parts) < 2:
            raise PlanError(f"{self.op} needs at least two operands")

    def dtype(self, schema: Schema) -> DataType:
        for part in self.parts:
            part.dtype(schema)
        return DataType.INT64

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for part in self.parts:
            out |= part.columns()
        return out

    def cost_category(self) -> str:
        if any(p.cost_category() == "string" for p in self.parts):
            return "string"
        return "arithmetic"

    def node_count(self) -> int:
        return 1 + sum(p.node_count() for p in self.parts)

    def __str__(self) -> str:
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Not(Expr):
    child: Expr

    def dtype(self, schema: Schema) -> DataType:
        self.child.dtype(schema)
        return DataType.INT64

    def columns(self) -> FrozenSet[str]:
        return self.child.columns()

    def cost_category(self) -> str:
        return self.child.cost_category()

    def node_count(self) -> int:
        return 1 + self.child.node_count()

    def __str__(self) -> str:
        return f"(NOT {self.child})"


@dataclass(frozen=True)
class Between(Expr):
    expr: Expr
    low: Expr
    high: Expr

    def dtype(self, schema: Schema) -> DataType:
        self.expr.dtype(schema)
        return DataType.INT64

    def columns(self) -> FrozenSet[str]:
        return self.expr.columns() | self.low.columns() | self.high.columns()

    def node_count(self) -> int:
        return 1 + self.expr.node_count() + self.low.node_count() \
            + self.high.node_count()

    def __str__(self) -> str:
        return f"({self.expr} BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class InList(Expr):
    expr: Expr
    values: Tuple[Any, ...]

    def __post_init__(self):
        if not self.values:
            raise PlanError("IN list cannot be empty")

    def dtype(self, schema: Schema) -> DataType:
        self.expr.dtype(schema)
        return DataType.INT64

    def columns(self) -> FrozenSet[str]:
        return self.expr.columns()

    def cost_category(self) -> str:
        if any(isinstance(v, str) for v in self.values):
            return "string"
        return self.expr.cost_category()

    def node_count(self) -> int:
        return 1 + self.expr.node_count() + len(self.values)

    def __str__(self) -> str:
        rendered = ", ".join(
            f"'{v}'" if isinstance(v, str) else str(v) for v in self.values)
        return f"({self.expr} IN ({rendered}))"


@dataclass(frozen=True)
class Like(Expr):
    """SQL LIKE with ``%`` (any run) and ``_`` (single char) wildcards."""

    expr: Expr
    pattern: str

    def _regex(self) -> "re.Pattern[str]":
        parts = []
        for ch in self.pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        return re.compile("^" + "".join(parts) + "$")

    def dtype(self, schema: Schema) -> DataType:
        if self.expr.dtype(schema) is not DataType.STRING:
            raise TypeMismatchError(f"LIKE needs a string operand in {self}")
        return DataType.INT64

    def columns(self) -> FrozenSet[str]:
        return self.expr.columns()

    def cost_category(self) -> str:
        return "string"

    def node_count(self) -> int:
        return 2 + self.expr.node_count()

    def __str__(self) -> str:
        return f"({self.expr} LIKE '{self.pattern}')"


def split_conjuncts(expr: Expr) -> Tuple[Expr, ...]:
    """Flatten top-level ANDs into individual predicates (for pushdown)."""
    if isinstance(expr, BoolOp) and expr.op == "and":
        out: Tuple[Expr, ...] = ()
        for part in expr.parts:
            out += split_conjuncts(part)
        return out
    return (expr,)


def conjoin(parts: Sequence[Expr]) -> Expr:
    """Re-combine predicates with AND."""
    parts = tuple(parts)
    if not parts:
        raise PlanError("cannot conjoin zero predicates")
    if len(parts) == 1:
        return parts[0]
    return BoolOp("and", parts)


def estimate_selectivity(expr: Expr) -> float:
    """Rule-of-thumb selectivity used by the optimizer (System R style)."""
    if isinstance(expr, Comparison):
        return 0.1 if expr.op == "=" else (0.9 if expr.op == "<>" else 1 / 3)
    if isinstance(expr, Between):
        return 0.25
    if isinstance(expr, InList):
        return min(1.0, 0.1 * len(expr.values))
    if isinstance(expr, Like):
        return 0.25
    if isinstance(expr, Not):
        return max(0.0, 1.0 - estimate_selectivity(expr.child))
    if isinstance(expr, BoolOp):
        factors = [estimate_selectivity(p) for p in expr.parts]
        if expr.op == "and":
            out = 1.0
            for f in factors:
                out *= f
            return out
        out = 0.0
        for f in factors:
            out = out + f - out * f
        return min(1.0, out)
    return 1.0
