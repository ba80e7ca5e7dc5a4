"""Query profiling: phase and per-operator breakdowns.

Slide 28 shows MonetDB's ``-t`` output (Trans/Shred/Query/Print phases)
and slide 54 contrasts a MySQL gprof trace with a MonetDB MIL trace for
TPC-H Q1.  MiniDB exposes the same introspection: every executed query
can report where its (simulated) time went, per phase and per operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.db.actuals import NodeActuals
from repro.errors import DatabaseError

#: Engine phases, in execution order.
PHASES = ("parse", "optimize", "execute", "print")


@dataclass(frozen=True)
class ProfileReport:
    """The full timing breakdown of one query execution (simulated ms).

    ``operators`` holds the executed plan's per-operator records
    (:class:`~repro.db.actuals.NodeActuals`), in pre-order.
    """

    sql: str
    phase_ms: Mapping[str, float]
    operators: Tuple[NodeActuals, ...]

    def __post_init__(self):
        unknown = [p for p in self.phase_ms if p not in PHASES]
        if unknown:
            raise DatabaseError(
                f"unknown phases {unknown}; known: {list(PHASES)}")

    @property
    def total_ms(self) -> float:
        return sum(self.phase_ms.values())

    @property
    def execute_ms(self) -> float:
        return self.phase_ms.get("execute", 0.0)

    def phase_share(self, phase: str) -> float:
        """Fraction of total time spent in one phase."""
        if phase not in PHASES:
            raise DatabaseError(f"unknown phase {phase!r}")
        total = self.total_ms
        return self.phase_ms.get(phase, 0.0) / total if total else 0.0

    def share_of_execute(self, op: NodeActuals) -> float:
        """*op*'s fraction of the execute phase, in [0, 1]."""
        execute = self.execute_ms
        return op.self_ms / execute if execute else 0.0

    def operator_line(self, op: NodeActuals) -> str:
        """One report row.  The share denominator is the *execute
        phase* only — parse/optimize/print time is not operator time,
        so including it would understate every operator."""
        share = 100.0 * self.share_of_execute(op)
        return (f"  {op.operator:<44} {op.self_ms:>10.3f} ms "
                f"{share:>5.1f}%  rows={op.actual_rows}")

    def dominant_operator(self) -> NodeActuals:
        if not self.operators:
            raise DatabaseError("profile has no operator timings")
        return max(self.operators, key=lambda op: op.self_ms)

    def format(self) -> str:
        """MonetDB-``-t``-style rendering (slide 29)."""
        lines = []
        for phase in PHASES:
            if phase in self.phase_ms:
                label = phase.capitalize()
                lines.append(f"{label:<9}{self.phase_ms[phase]:>10.3f} msec")
        lines.append(f"{'Total':<9}{self.total_ms:>10.3f} msec")
        if self.operators:
            lines.append("operators:")
            lines.extend(self.operator_line(op) for op in self.operators)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able breakdown (for trace attachments and reports).

        Operator shares are normalised against the execute phase, the
        same denominator :meth:`format` prints.
        """
        return {
            "sql": self.sql,
            "phase_ms": dict(self.phase_ms),
            "total_ms": self.total_ms,
            "execute_ms": self.execute_ms,
            "operators": [
                {
                    "operator": op.operator,
                    "self_ms": op.self_ms,
                    "rows": op.actual_rows,
                    "share_of_execute": self.share_of_execute(op),
                }
                for op in self.operators
            ],
        }

