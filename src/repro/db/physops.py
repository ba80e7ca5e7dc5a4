"""Physical-operator selection: a chainable post-join-order stage.

Modeled on PostBOUND's ``physops.selection``: once the join *order* is
fixed, a chain of :class:`PhysicalOperatorSelection` stages decides the
physical *operators* — hash vs merge vs nested-loop join, sequential vs
index scan, and the hash-join build side.  Stages chain with
:meth:`~PhysicalOperatorSelection.chain_with`; each stage refines the
assignment produced by its predecessor, so a cost-based stage can run
first and a hint stage can override it afterwards.

The optimizer (:mod:`repro.db.optimizer`) builds an
:class:`OperatorSelectionContext` describing the ordered join steps and
per-table scan alternatives, runs the chain, and assembles the physical
plan from the resulting :class:`PhysicalOperatorAssignment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.db.context import join_access_ns, partition_bits
from repro.db.costmodel import CostModel
from repro.db.parser import PlanHints
from repro.errors import PlanError

JOIN_OPERATORS = ("hash", "merge", "loop", "radix")
SCAN_OPERATORS = ("seq", "index")
BUILD_SIDES = ("left", "right")


@dataclass(frozen=True)
class JoinStep:
    """One step of a left-deep join order: the prefix joins *table*.

    ``left_keys`` name columns available in the joined prefix,
    ``right_keys`` the matching columns of the new table (one pair per
    join edge; more than one when the join graph has a cycle).
    """

    table: str          # the table this step adds (the right input)
    left_keys: Tuple[str, ...]
    right_keys: Tuple[str, ...]
    rows_left: float    # estimated rows of the joined prefix
    rows_right: float   # estimated rows of the (filtered) new table
    rows_out: float     # estimated rows after this join


@dataclass(frozen=True)
class OperatorSelectionContext:
    """Everything a selection stage may consult.

    ``scan_costs`` maps each table to its available access paths and
    their estimated cost in ns (``{"seq": 120.0, "index": 40.0}``); a
    missing ``"index"`` entry means no usable index exists.
    """

    steps: Tuple[JoinStep, ...]
    scan_costs: Dict[str, Dict[str, float]]
    cost_model: CostModel
    #: Optional :class:`~repro.hardware.cache.CacheHierarchy` used to
    #: cost memory-access patterns (None = memory latency invisible, the
    #: pre-cache-conscious behaviour; radix then never wins).
    cache: Optional[object] = None


@dataclass
class PhysicalOperatorAssignment:
    """The chain's output: operator choices keyed by table.

    ``join_ops``/``build_sides`` are keyed by the table each join step
    *introduces* (unambiguous in a left-deep order).
    """

    scan_ops: Dict[str, str] = field(default_factory=dict)
    join_ops: Dict[str, str] = field(default_factory=dict)
    build_sides: Dict[str, str] = field(default_factory=dict)

    def set_scan(self, table: str, operator: str) -> None:
        if operator not in SCAN_OPERATORS:
            raise PlanError(f"unknown scan operator {operator!r}")
        self.scan_ops[table] = operator

    def set_join(self, table: str, operator: str) -> None:
        if operator not in JOIN_OPERATORS:
            raise PlanError(f"unknown join operator {operator!r}")
        self.join_ops[table] = operator

    def set_build_side(self, table: str, side: str) -> None:
        if side not in BUILD_SIDES:
            raise PlanError(f"unknown build side {side!r}")
        self.build_sides[table] = side


class PhysicalOperatorSelection:
    """Base class for one stage of the operator-selection chain."""

    def __init__(self):
        self._next: Optional["PhysicalOperatorSelection"] = None

    def chain_with(self, successor: "PhysicalOperatorSelection"
                   ) -> "PhysicalOperatorSelection":
        """Append *successor* to the end of this chain; returns self so
        chains compose fluently:
        ``CostBased(...).chain_with(Hinted(hints))``."""
        if self._next is None:
            self._next = successor
        else:
            self._next.chain_with(successor)
        return self

    def select_physical_operators(
            self, context: OperatorSelectionContext,
            assignment: Optional[PhysicalOperatorAssignment] = None
    ) -> PhysicalOperatorAssignment:
        """Run this stage, then every chained successor."""
        if assignment is None:
            assignment = PhysicalOperatorAssignment()
        self._apply(context, assignment)
        if self._next is not None:
            self._next.select_physical_operators(context, assignment)
        return assignment

    def _apply(self, context: OperatorSelectionContext,
               assignment: PhysicalOperatorAssignment) -> None:
        raise NotImplementedError


class CostBasedOperatorSelection(PhysicalOperatorSelection):
    """Pick the cheapest operator per step under the cost model.

    - joins: min over hash / merge / loop, where merge pays for the
      Sort enforcers it needs on both inputs;
    - scans: the cheaper of the available access paths;
    - build side: hash the estimated-smaller input (ties build right,
      matching the executor's classic layout).
    """

    def _apply(self, context: OperatorSelectionContext,
               assignment: PhysicalOperatorAssignment) -> None:
        model = context.cost_model
        for table, paths in context.scan_costs.items():
            assignment.set_scan(
                table, min(paths, key=lambda op: paths[op]))
        for step in context.steps:
            costs = {op: join_operator_cost(model, op, step,
                                            cache=context.cache)
                     for op in JOIN_OPERATORS}
            assignment.set_join(step.table, min(costs, key=costs.get))
            assignment.set_build_side(
                step.table,
                "left" if step.rows_left < step.rows_right else "right")


class HintOperatorSelection(PhysicalOperatorSelection):
    """Force operators from ``/*+ ... */`` plan hints.

    Chain this *after* a cost-based stage: only hinted entries are
    overridden, everything else keeps the predecessor's choice.
    """

    def __init__(self, hints: PlanHints):
        super().__init__()
        self.hints = hints

    def _apply(self, context: OperatorSelectionContext,
               assignment: PhysicalOperatorAssignment) -> None:
        known = set(context.scan_costs)
        joined = {step.table for step in context.steps}
        for table, operator in self.hints.scans:
            if table not in known:
                raise PlanError(
                    f"SCAN hint references unknown table {table!r}")
            if operator == "index" \
                    and "index" not in context.scan_costs[table]:
                raise PlanError(
                    f"SCAN({table} index) hint: no usable index "
                    f"(equality predicate on an indexed column needed)")
            assignment.set_scan(table, operator)
        for table, operator in self.hints.join_ops:
            if table not in joined:
                raise PlanError(
                    f"JOIN_OP hint references {table!r}, which no join "
                    f"step introduces (first table cannot be hinted)")
            assignment.set_join(table, operator)
        for table, side in self.hints.build_sides:
            if table not in joined:
                raise PlanError(
                    f"BUILD hint references {table!r}, which no join "
                    f"step introduces")
            assignment.set_build_side(table, side)


def join_operator_cost(model: CostModel, operator: str,
                       step: JoinStep, cache=None) -> float:
    """Estimated ns for executing one join step with *operator*.

    Merge joins pay for the Sort enforcers the executor requires on
    both (unsorted) inputs; that keeps merge honest against hash until
    interesting orders are tracked.  With a *cache* hierarchy the hash
    join additionally pays random-access memory latency sized by its
    build input, while the radix join pays partitioning passes but
    probes cache-resident partitions — so radix wins exactly when the
    build side outgrows the cache.  Without one, radix pays for its
    partitioning passes alone and is never chosen: the
    pre-cache-conscious plan space.
    """
    if operator in ("hash", "radix"):
        n_build = int(min(step.rows_left, step.rows_right))
        n_probe = int(step.rows_left + step.rows_right) - n_build
        bits = partition_bits(cache, n_build) if operator == "radix" else 0
        kind = "RadixHashJoin" if operator == "radix" else "HashJoin"
        return (model.operator_ns(kind, step.rows_left, step.rows_out,
                                  step.rows_right)
                + sum(join_access_ns(cache, n_build, n_probe, bits)))
    if operator == "loop":
        return model.operator_ns("NestedLoopJoin", step.rows_left,
                                 step.rows_out, step.rows_right)
    if operator == "merge":
        return (model.operator_ns("MergeJoin", step.rows_left,
                                  step.rows_out, step.rows_right)
                + model.operator_ns("Sort", step.rows_left,
                                    step.rows_left)
                + model.operator_ns("Sort", step.rows_right,
                                    step.rows_right))
    raise PlanError(f"unknown join operator {operator!r}")
