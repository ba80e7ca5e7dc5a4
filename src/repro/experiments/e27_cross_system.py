"""E27 — cross-system study through the fair-comparison harness.

The tutorial's comparison slides (and Taipalus's survey of published
DBMS comparisons, arXiv 2301.01095) agree on the failure mode: the
*protocol* differs between systems, not the workload.  E27 runs one
unchanged star-schema workload spec across three backends —

* ``minidb-loop``   — MiniDB under the per-row ``loop`` cost profile,
* ``minidb-vectorized`` — the same engine under the ``vectorized`` one,
* ``sqlite``        — stdlib SQLite, in-process, via dialect
  translation and CROSS-JOIN plan pinning,

with every query also executed under :data:`FORCED_ORDERS` — three
forced left-deep join orders, mapped to each backend's native forcing
mechanism — so plan shapes are comparable, not just end-to-end times.

Two runs are reported:

1. **fair** — identical :class:`ComparisonProtocol` everywhere; the
   automated pitfall checklist must pass all seven checks;
2. **unfair** — deliberately mismatched warm-up (SQLite measured cold
   with zero warm-up while MiniDB runs warm) on the *same* spec; the
   checklist must catch the stage and warm-up mismatches.

The point is that the unfair run produces plausible-looking numbers —
only the executable checklist separates it from the fair one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Tuple

from repro.db import Database, default_systems
from repro.experiments.e25_optimizer import star_database, star_queries
from repro.measurement.comparison import (
    ComparisonProtocol,
    ComparisonReport,
    FairComparisonHarness,
    QuerySpec,
    WorkloadSpec,
)

DEFAULT_SEED = 7
DEFAULT_N_FACT = 4000

#: The forced left-deep join orders every query runs under, on every
#: system.  All three are connected (each join finds a key shared with
#: the prefix): the textual order, the swap that filters through cust
#: second, and the order that starts from the selective dimension.
FORCED_ORDERS: Tuple[Tuple[str, ...], ...] = (
    ("fact", "part", "cust"),
    ("fact", "cust", "part"),
    ("cust", "fact", "part"),
)

#: How many of the E25 star queries the workload uses.  Two keeps the
#: grid (queries x 4 variants x 3 systems x runs) CI-sized; the spec
#: is identical for every system either way.
N_QUERIES = 2


def star_workload(n_queries: int = N_QUERIES) -> WorkloadSpec:
    """The E25 star queries as a cross-system workload spec."""
    queries = tuple(
        QuerySpec(name=q.name, sql=q.sql, forced_orders=FORCED_ORDERS)
        for q in star_queries()[:n_queries])
    return WorkloadSpec(name="e27-star", queries=queries,
                        scale=f"n_fact={DEFAULT_N_FACT}")


@dataclass(frozen=True)
class E27Result:
    seed: int
    n_fact: int
    fair: ComparisonReport
    unfair: ComparisonReport

    @property
    def unfair_flagged(self) -> Tuple[str, ...]:
        """Pitfall keys the deliberately unfair run tripped."""
        return tuple(c.key for c in self.unfair.warnings)

    def format(self) -> str:
        lines = [
            "E27: cross-system comparison, fair and unfair "
            "(star workload, 3 backends, 3 forced join orders)",
            "",
            "fair run — identical protocol on every system:",
            "  " + self.fair.format().replace("\n", "\n  "),
            "",
            "unfair run — same workload, SQLite measured cold with "
            "zero warm-up:",
            "  " + self.unfair.format().replace("\n", "\n  "),
            "",
            f"checklist verdict: fair run "
            f"{'passes' if self.fair.is_fair else 'FAILS'} all "
            f"{len(self.fair.pitfalls)} checks; unfair run flagged "
            f"{list(self.unfair_flagged)}",
        ]
        return "\n".join(lines)


def _fair_harness(warmup: int, repetitions: int) -> FairComparisonHarness:
    return FairComparisonHarness(
        default_systems(),
        protocol=ComparisonProtocol(stage="warm", warmup=warmup,
                                    repetitions=repetitions))


def _unfair_harness(warmup: int, repetitions: int) -> FairComparisonHarness:
    """Same systems and spec, but SQLite gets a different protocol.

    This is the classic published mistake: the authors' engine is
    measured hot while the contender pays cold-cache cost every run.
    """
    return FairComparisonHarness(
        default_systems(),
        protocol=ComparisonProtocol(stage="warm", warmup=warmup,
                                    repetitions=repetitions),
        protocols={"sqlite": ComparisonProtocol(
            stage="cold", warmup=0, repetitions=repetitions)})


def run_e27(seed: int = DEFAULT_SEED, n_fact: int = DEFAULT_N_FACT,
            warmup: int = 1, repetitions: int = 3,
            n_queries: int = N_QUERIES) -> E27Result:
    db: Database = star_database(seed=seed, n_fact=n_fact)
    spec = star_workload(n_queries=n_queries)
    fair = _fair_harness(warmup, repetitions).run(db, spec)
    unfair = _unfair_harness(warmup, repetitions).run(db, spec)
    return E27Result(seed=seed, n_fact=n_fact, fair=fair, unfair=unfair)


def export_artifacts(result: E27Result, out_dir: str) -> List[str]:
    """Write the CI artifact; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "e27_cross_system.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "seed": result.seed,
            "n_fact": result.n_fact,
            "forced_orders": [list(o) for o in FORCED_ORDERS],
            "fair": result.fair.to_dict(),
            "unfair": result.unfair.to_dict(),
            "unfair_flagged": list(result.unfair_flagged),
        }, handle, indent=2, sort_keys=True)
    return [path]

