"""Per-operator actuals: what execution *did* vs what the planner said.

The paper's first prescription is to measure, not guess; EXPLAIN output
that shows only estimates is a guess wearing a uniform.  After every
execution each :class:`~repro.db.plan.PlanNode` carries its observed
row count, batch count, self/total simulated time and the buffer-pool
hits/misses its own ``_run`` caused (children excluded — they record
their own).  :class:`PlanActuals` snapshots that tree into an immutable
est-vs-actual report:

- ``EXPLAIN ANALYZE`` (:meth:`repro.db.engine.Engine.explain_analyze`)
  renders it side by side with the per-node *q-error*
  ``max(est/act, act/est)`` — the standard cardinality-accuracy metric;
- :mod:`repro.db.feedback` harvests observed cardinalities from it and
  folds them back into the statistics catalogue;
- E25/E26 read their q-error scatters from here instead of re-walking
  live plan objects.

Everything is stamped from the virtual clock, so the rendering is
byte-identical across repeated seeded runs and across the ``jobs``
values of :func:`~repro.parallel.run_campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.db.plan import PlanNode
from repro.errors import PlanError

#: ``span_extras`` keys surfaced per node in EXPLAIN ANALYZE output, in
#: this (stable) rendering order — cache-conscious execution actuals:
#: zone-map block pruning, dictionary usage, radix-join partitioning.
EXTRA_KEYS = ("blocks", "blocks_pruned", "dict_columns",
              "radix_bits", "partitions", "zone")


def q_error(est_rows: float, actual_rows: float) -> float:
    """The cardinality q-error ``max(est/act, act/est)``, floored at 1.

    Both sides are clamped to one row so empty results do not divide by
    zero; a perfect estimate scores exactly 1.0.
    """
    ratio = max(float(est_rows), 1.0) / max(float(actual_rows), 1.0)
    return max(ratio, 1.0 / ratio)


@dataclass(frozen=True)
class NodeActuals:
    """One operator's est-vs-actual record."""

    operator: str
    kind: str
    est_rows: float
    actual_rows: int
    batches: int
    self_ms: float
    total_ms: float
    buffer_hits: int
    buffer_misses: int
    children: Tuple["NodeActuals", ...] = ()
    #: Operator-specific actuals (:data:`EXTRA_KEYS` subset), e.g. a
    #: scan's pruned-block count or a radix join's partition count.
    extras: Tuple[Tuple[str, Any], ...] = ()

    @property
    def q_error(self) -> float:
        return q_error(self.est_rows, float(self.actual_rows))

    def walk(self) -> Iterator["NodeActuals"]:
        """Yield this node then every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "operator": self.operator,
            "kind": self.kind,
            "est_rows": self.est_rows,
            "actual_rows": self.actual_rows,
            "q_error": self.q_error,
            "batches": self.batches,
            "self_ms": self.self_ms,
            "total_ms": self.total_ms,
            "buffer_hits": self.buffer_hits,
            "buffer_misses": self.buffer_misses,
            "extras": dict(self.extras),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_node(cls, node: PlanNode) -> "NodeActuals":
        """Snapshot one executed plan node (and its subtree)."""
        if node.rows_out is None:
            raise PlanError(
                f"cannot collect actuals: operator {node.name()!r} was "
                "never executed")
        est = node.last_est_rows
        if est is None:
            est = node.est_rows if node.est_rows is not None else 0.0
        return cls(
            operator=node.name(),
            kind=type(node).__name__,
            est_rows=float(est),
            actual_rows=int(node.rows_out),
            batches=int(node.batches),
            self_ms=node.self_seconds * 1000.0,
            total_ms=node.total_seconds * 1000.0,
            buffer_hits=int(node.buffer_hits),
            buffer_misses=int(node.buffer_misses),
            children=tuple(cls.from_node(child)
                           for child in node.children),
            extras=tuple((key, node.span_extras[key])
                         for key in EXTRA_KEYS
                         if key in node.span_extras))


@dataclass(frozen=True)
class PlanActuals:
    """The executed plan's full est-vs-actual tree for one statement."""

    sql: str
    executor: str
    root: NodeActuals

    @classmethod
    def from_plan(cls, plan: PlanNode, sql: str,
                  executor: str) -> "PlanActuals":
        return cls(sql=sql, executor=executor,
                   root=NodeActuals.from_node(plan))

    def walk(self) -> Iterator[NodeActuals]:
        return self.root.walk()

    @property
    def n_nodes(self) -> int:
        return sum(1 for __ in self.walk())

    def qerrors(self) -> Tuple[float, ...]:
        """Every node's q-error, pre-order."""
        return tuple(node.q_error for node in self.walk())

    def median_qerror(self) -> float:
        """Order-statistic median of the per-node q-errors."""
        ordered = sorted(self.qerrors())
        return ordered[len(ordered) // 2]

    def max_qerror(self) -> float:
        return max(self.qerrors())

    def node_for(self, kind: str) -> Optional[NodeActuals]:
        """The first node (pre-order) of one operator kind, if any."""
        for node in self.walk():
            if node.kind == kind:
                return node
        return None

    def format(self) -> str:
        """The EXPLAIN ANALYZE rendering: est vs actual, per node.

        Deterministic: every number comes off the virtual clock or the
        (seeded) data, so repeated seeded runs produce identical bytes.
        """
        lines = [
            f"EXPLAIN ANALYZE (executor={self.executor})",
            f"-- {self.n_nodes} operators, "
            f"median q-error {self.median_qerror():.2f}, "
            f"max {self.max_qerror():.2f}",
        ]

        def render(node: NodeActuals, indent: int) -> None:
            parts = [
                node.operator,
                f"est_rows={node.est_rows:.0f}",
                f"rows={node.actual_rows}",
                f"q={node.q_error:.2f}",
                f"batches={node.batches}",
                f"self={node.self_ms:.3f}ms",
                f"buffer={node.buffer_hits}/{node.buffer_misses}",
            ]
            for key, value in node.extras:
                if key == "blocks_pruned":
                    continue  # rendered with "blocks" below
                if key == "blocks":
                    pruned = dict(node.extras).get("blocks_pruned", 0)
                    parts.append(f"blocks pruned={pruned}/{value}")
                else:
                    parts.append(f"{key}={value}")
            lines.append("  " * indent + "-> " + "  ".join(parts))
            for child in node.children:
                render(child, indent + 1)

        render(self.root, 0)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sql": self.sql,
            "executor": self.executor,
            "n_nodes": self.n_nodes,
            "median_qerror": self.median_qerror(),
            "max_qerror": self.max_qerror(),
            "plan": self.root.to_dict(),
        }
