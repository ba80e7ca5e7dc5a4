"""MiniDB physical operators.

Every operator performs real computation on numpy column batches *and*
charges simulated cost to the execution context:

- CPU nanoseconds per value/row, routed through the DBG/OPT build model;
- per-tuple interpretation overhead under the ``tuple`` (Volcano)
  profile;
- I/O through the buffer pool (scans only).

Each operator has one host implementation, built on the kernels of
:mod:`repro.db.kernels`.  The execution styles the tutorial contrasts —
per-row loop, Volcano tuples, vectorized — are cost profiles
(:class:`~repro.db.context.CostProfile`): they choose what each charge
site charges, never which code runs.  This dual nature is what lets the
benchmark suite reproduce the tutorial's timing tables deterministically
while tests validate results against SQLite.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db import kernels
from repro.db.context import ExecutionContext
from repro.db.expressions import Expr
from repro.db.plan import Batch, PlanNode, batch_rows, require_columns
from repro.db.storage import Dictionary
from repro.db.types import DataType
from repro.errors import PlanError


def _kernel_extras(ctx) -> List[str]:
    """The ``kernel=`` EXPLAIN annotation: which constants the operator
    charges (the per-row loop ones or the vectorized kernel ones)."""
    if ctx is None:
        return []
    return [f"kernel={'vectorized' if ctx.profile.kernels else 'loop'}"]


def _predicate_view(batch, columns: Sequence[str], n: int,
                    ctx) -> Batch:
    """The columns an expression needs, gathered if *batch* carries a
    selection vector.  Expressions over no columns (pure literals) get
    a carrier column so their result still has *n* rows."""
    base, sel = kernels.split_batch(batch)
    if not columns:
        return {"__rows__": np.zeros(n, dtype=np.int8)}
    if sel is None:
        return base
    kernels.charge_gather(ctx, n, len(columns))
    return kernels.gather(base, sel, list(columns))


def _join_schema(node: PlanNode, ctx: ExecutionContext,
                 right_keys: Sequence[str]) -> Dict[str, DataType]:
    """Output columns of an equi-join: left's, then right's, keeping one
    copy of a key both sides name alike."""
    out = dict(node.children[0].schema(ctx))
    for name, dtype in node.children[1].schema(ctx).items():
        if name in out:
            if name in right_keys:
                continue  # equal to the left key; keep one copy
            raise PlanError(
                f"join would produce duplicate column {name!r}")
        out[name] = dtype
    return out


def _join_output(left: Batch, right: Batch, li: np.ndarray,
                 ri: np.ndarray, right_keys: Sequence[str]) -> Batch:
    """Gather the matched ``(li, ri)`` row pairs into one batch."""
    out: Batch = {name: arr[li] for name, arr in left.items()}
    for name, arr in right.items():
        if name in out:
            if name in right_keys:
                continue
            raise PlanError(
                f"join would produce duplicate column {name!r}")
        out[name] = arr[ri]
    return out


class SeqScan(PlanNode):
    """Sequential scan of a base table through the buffer pool.

    When the planner pushes a filter down onto the scan
    (:attr:`prune_for`), the scan consults the table's zone maps first
    and skips every block the predicate can never match — the pruned
    blocks' I/O and scan CPU are never charged, and under the
    ``vectorized`` profile the surviving rows travel as a selection
    vector so non-filter columns materialise late.  Dictionary-encoded
    columns read their (smaller) code + dictionary footprint instead of
    raw values.
    """

    category = "scan"

    def __init__(self, table_name: str,
                 columns: Optional[Sequence[str]] = None):
        super().__init__()
        self.table_name = table_name
        self.columns = tuple(columns) if columns is not None else None
        #: Predicate of the Filter directly above (set by the planner on
        #: pushdown); drives zone-map block pruning.
        self.prune_for: Optional[Expr] = None
        #: Per-block verdicts of the last execution (the Filter above
        #: reads them to short-circuit all-true/all-false inputs).
        self.last_block_verdicts = None

    def name(self) -> str:
        cols = ", ".join(self.columns) if self.columns else "*"
        return f"SeqScan({self.table_name}: {cols})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        table = ctx.database.table(self.table_name)
        names = self.columns if self.columns is not None \
            else table.column_names
        return {n: table.column(n).dtype for n in names}

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        return float(ctx.database.table(self.table_name).n_rows)

    def _verdicts(self, ctx, table):
        """Zone-map verdicts for the pushed-down predicate (or None)."""
        if self.prune_for is None or not ctx.zone_maps:
            return None
        from repro.db import zonemaps
        return zonemaps.block_verdicts(table, self.prune_for)

    def explain_extras(self, ctx) -> List[str]:
        if ctx is None:
            return []
        extras: List[str] = []
        table = ctx.database.table(self.table_name)
        names = self.columns if self.columns is not None \
            else table.column_names
        n_dict = sum(1 for name in names
                     if table.column(name).dictionary is not None)
        if n_dict:
            extras.append(f"dict={n_dict}/{len(names)}")
        verdicts = self._verdicts(ctx, table)
        if verdicts is not None:
            from repro.db.zonemaps import PRUNE_NONE
            pruned = int((verdicts == PRUNE_NONE).sum())
            extras.append(f"blocks pruned={pruned}/{len(verdicts)}")
        return extras

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        table = ctx.database.table(self.table_name)
        names = self.columns if self.columns is not None \
            else table.column_names
        n = table.n_rows
        survivors = None
        verdicts = self._verdicts(ctx, table)
        self.last_block_verdicts = verdicts
        n_dict = sum(1 for name in names
                     if table.column(name).dictionary is not None)
        if n_dict:
            self.span_extras["dict_columns"] = n_dict
        if verdicts is not None:
            from repro.db import zonemaps
            pruned = int((verdicts == zonemaps.PRUNE_NONE).sum())
            self.span_extras["blocks"] = len(verdicts)
            self.span_extras["blocks_pruned"] = pruned
            survivors = zonemaps.surviving_rows(table, verdicts)
        # I/O: only the referenced columns travel through the pool
        # (column store!), which is why narrow scans run hot sooner.
        # Dictionary-encoded columns ship codes + dictionary; pruned
        # blocks are skipped before they are ever read.
        read_bytes = sum(table.column(name).stored_bytes
                         for name in names)
        n_scanned = n if survivors is None else len(survivors)
        if survivors is not None and n:
            read_bytes = int(round(read_bytes * n_scanned / n))
        ctx.buffer_pool.read_table(self.table_name, read_bytes)
        ctx.charge_cpu("scan",
                       ctx.costs.scan_ns_per_value * n_scanned * len(names))
        ctx.charge_tuples(n_scanned)
        base = {name: table.column(name).in_flight for name in names}
        if survivors is None:
            return base
        if ctx.profile.late_materialization:
            # Survivors ride as a selection vector until a pipeline
            # breaker gathers the payload columns.
            return kernels.SelBatch(base, survivors)
        return {name: arr[survivors] for name, arr in base.items()}


class Filter(PlanNode):
    """Row selection by a boolean predicate."""

    def __init__(self, child: PlanNode, predicate: Expr):
        super().__init__([child])
        self.predicate = predicate

    @property
    def category(self) -> str:  # type: ignore[override]
        return self.predicate.cost_category()

    def name(self) -> str:
        return f"Filter({self.predicate})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return self.children[0].schema(ctx)

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        from repro.db.expressions import estimate_selectivity
        return self.children[0].estimated_rows(ctx) * \
            estimate_selectivity(self.predicate)

    def explain_extras(self, ctx) -> List[str]:
        return _kernel_extras(ctx)

    def _zone_shortcircuit(self) -> Optional[str]:
        """Zone-map proof about the child scan's surviving blocks.

        Returns ``"all"`` when every surviving block is proven all-true
        (the predicate need not run at all), ``"none"`` when every block
        was pruned (the input is already empty), and None when the rows
        must be evaluated normally.
        """
        child = self.children[0]
        if not isinstance(child, SeqScan) or \
                child.prune_for is not self.predicate:
            return None
        verdicts = child.last_block_verdicts
        if verdicts is None:
            return None
        from repro.db import zonemaps
        surviving = verdicts[verdicts != zonemaps.PRUNE_NONE]
        if len(surviving) == 0:
            return "none"
        if bool((surviving == zonemaps.PRUNE_ALL).all()):
            return "all"
        return None

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        batch = child_batches[0]
        needed = sorted(self.predicate.columns())
        require_columns(batch, needed, self.name())
        n = batch_rows(batch)
        costs = ctx.costs
        if ctx.profile.kernels:
            ctx.charge_cpu(self.category,
                           costs.kernel_launch_ns
                           + costs.vector_filter_ns_per_value * n
                           * self.predicate.node_count())
            self.span_extras["kernel"] = "filter.vector"
        else:
            ctx.charge_cpu(self.category,
                           costs.filter_ns_per_value * n
                           * self.predicate.node_count())
        ctx.charge_tuples(n)
        proof = self._zone_shortcircuit()
        if proof is not None:
            # Zone maps already decided every surviving row ("all") or
            # pruned every block ("none" — the batch is empty): skip
            # compiling and evaluating the predicate entirely.
            self.span_extras["zone"] = proof
            return batch
        view = _predicate_view(batch, needed, n, ctx)
        mask = np.asarray(kernels.compile_expr(self.predicate)(view),
                          dtype=bool)
        if n and bool(mask.all()):
            # All rows survive: the input batch is already the answer.
            return batch
        base, sel = kernels.split_batch(batch)
        new_sel = np.flatnonzero(mask) if sel is None else sel[mask]
        if ctx.profile.late_materialization:
            return kernels.SelBatch(base, new_sel)
        if ctx.profile.kernels:
            kernels.charge_gather(ctx, int(new_sel.size), len(base))
        return kernels.gather(base, new_sel)


class Project(PlanNode):
    """Expression projection with aliases."""

    def __init__(self, child: PlanNode,
                 items: Sequence[Tuple[Expr, str]]):
        super().__init__([child])
        if not items:
            raise PlanError("projection needs at least one item")
        aliases = [alias for __, alias in items]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate output names in projection {aliases}")
        self.items = tuple(items)

    category = "arithmetic"

    def name(self) -> str:
        rendered = ", ".join(f"{expr} AS {alias}" if str(expr) != alias
                             else alias for expr, alias in self.items)
        return f"Project({rendered})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        child_schema = self.children[0].schema(ctx)
        return {alias: expr.dtype(child_schema)
                for expr, alias in self.items}

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        return self.children[0].estimated_rows(ctx)

    def explain_extras(self, ctx) -> List[str]:
        return _kernel_extras(ctx)

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        # Projection is a gather point: referenced columns materialise
        # here, computed outputs are fresh arrays either way.
        batch = child_batches[0]
        n = batch_rows(batch)
        costs = ctx.costs
        referenced = sorted(set().union(
            *(expr.columns() for expr, __ in self.items)))
        view = _predicate_view(batch, referenced, n, ctx)
        if ctx.profile.kernels:
            ctx.charge_cpu("arithmetic", costs.kernel_launch_ns)
            self.span_extras["kernel"] = "project.vector"
            per_value = costs.vector_project_ns_per_value
        else:
            per_value = costs.project_ns_per_value
        out: Batch = {}
        for expr, alias in self.items:
            ctx.charge_cpu(expr.cost_category(),
                           per_value * n * expr.node_count())
            # A column reference passes a coded column on as it is.
            out[alias] = kernels.compile_expr(expr)(view)
        ctx.charge_tuples(n)
        return out


class HashJoin(PlanNode):
    """Inner equi-join: build on the right child, probe with the left."""

    category = "hash"

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: Sequence[str], right_keys: Sequence[str]):
        super().__init__([left, right])
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError(
                "join needs equally many (>=1) keys on both sides")
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        #: Optional physical-operator-selection override (plan hints /
        #: cost-based build-side choice); None keeps the estimate rule.
        self.forced_build_side: Optional[str] = None

    def name(self) -> str:
        pairs = ", ".join(f"{l}={r}" for l, r in
                          zip(self.left_keys, self.right_keys))
        return f"HashJoin({pairs})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return _join_schema(self, ctx, self.right_keys)

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        left = self.children[0].estimated_rows(ctx)
        right = self.children[1].estimated_rows(ctx)
        # Foreign-key-style estimate: output bounded by the probe side.
        return max(left, right) if min(left, right) else 0.0

    def choose_build_side(self, ctx) -> str:
        """Build the hash table on the estimated-smaller input.

        Ties keep the classic build-right layout.
        """
        if self.forced_build_side is not None:
            return self.forced_build_side
        est_left = self.children[0].estimated_rows_safe(ctx)
        est_right = self.children[1].estimated_rows_safe(ctx)
        return "left" if est_left < est_right else "right"

    def explain_extras(self, ctx) -> List[str]:
        extras = _kernel_extras(ctx)
        build = self.span_extras.get("build_side")
        if build is None and ctx is not None:
            build = self.choose_build_side(ctx)
        if build is not None:
            extras.append(f"build={build}")
        return extras

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        left, right = child_batches
        require_columns(left, self.left_keys, self.name() + " (left)")
        require_columns(right, self.right_keys, self.name() + " (right)")
        left = kernels.materialize_charged(ctx, left)
        right = kernels.materialize_charged(ctx, right)
        n_left, n_right = batch_rows(left), batch_rows(right)
        build_side = self.choose_build_side(ctx)
        n_build = n_left if build_side == "left" else n_right
        self.span_extras["build_side"] = build_side
        # Hash table: roughly one 8-byte slot + entry per build row.
        self.aux_bytes = kernels.HASH_TABLE_BYTES_PER_ROW * n_build
        ctx.charge_tuples(n_left + n_right)
        self._charge_access(ctx, n_left, n_right, n_build)
        costs = ctx.costs
        if ctx.profile.kernels:
            ctx.charge_cpu("hash",
                           costs.kernel_launch_ns
                           + costs.vector_join_ns_per_row
                           * (n_left + n_right))
            self.span_extras["kernel"] = "join.vector"
        else:
            ctx.charge_cpu("hash", costs.hash_build_ns_per_row * n_build)
            ctx.charge_cpu("hash", costs.hash_probe_ns_per_row
                           * (n_left + n_right - n_build))
        left_codes, right_codes = kernels.encode_join_keys(
            [left[k] for k in self.left_keys],
            [right[k] for k in self.right_keys])
        li, ri = self._match(ctx, left_codes, right_codes)
        return _join_output(left, right, li, ri, self.right_keys)

    def _charge_access(self, ctx, n_left: int, n_right: int,
                       n_build: int) -> None:
        """Memory-latency side of the join.

        Charged only when the engine carries a cache model: building and
        probing are random accesses into a hash table sized by the full
        build input, so an out-of-cache build pays memory latency on
        (almost) every probe — the effect the radix join removes.
        """
        cache = ctx.cache
        if cache is None:
            return
        working_set = max(1, kernels.HASH_TABLE_BYTES_PER_ROW * n_build)
        ns = cache.random_accesses(n_build, working_set)
        ns += cache.random_accesses(n_left + n_right - n_build,
                                    working_set)
        ctx.charge_cpu("hash", ns)

    def _match(self, ctx, left_codes: np.ndarray,
               right_codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return kernels.join_match(left_codes, right_codes)


class RadixHashJoin(HashJoin):
    """Cache-conscious hash join (Manegold/Boncz/Kersten style).

    Both inputs are radix-partitioned on the low bits of their join-key
    codes — enough bits that each partition's hash table fits the
    simulated L2 cache — and then joined partition by partition, so
    probes hit cache-resident tables instead of paying memory latency
    per row.  The output is byte-identical to :class:`HashJoin`'s
    left-major result; only the access pattern (and hence the simulated
    cost) differs.
    """

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: Sequence[str], right_keys: Sequence[str],
                 radix_bits: Optional[int] = None):
        super().__init__(left, right, left_keys, right_keys)
        #: Forced partition bits (plan-level override); None defers to
        #: the context's ``radix_bits`` and finally to auto-sizing.
        self.radix_bits = radix_bits
        self._last_bits = 0

    def name(self) -> str:
        pairs = ", ".join(f"{l}={r}" for l, r in
                          zip(self.left_keys, self.right_keys))
        return f"RadixHashJoin({pairs})"

    def _bits_for(self, ctx, n_build: int) -> int:
        forced = self.radix_bits if self.radix_bits is not None \
            else ctx.radix_bits
        if forced is not None:
            return max(0, min(int(forced), kernels.MAX_RADIX_BITS))
        cache = ctx.cache
        if cache is not None and cache.levels:
            cache_bytes = cache.levels[-1].size_bytes
        else:
            from repro.hardware.cache import DEFAULT_CACHE_MODEL
            cache_bytes = DEFAULT_CACHE_MODEL.l2_bytes
        return kernels.radix_bits_for(n_build, cache_bytes)

    def explain_extras(self, ctx) -> List[str]:
        extras = super().explain_extras(ctx)
        bits = self.span_extras.get("radix_bits")
        if bits is None and ctx is not None:
            build = self.choose_build_side(ctx)
            child = self.children[0 if build == "left" else 1]
            bits = self._bits_for(ctx, int(child.estimated_rows_safe(ctx)))
        if bits is not None:
            extras.append(f"bits={bits}")
            extras.append(f"partitions={1 << int(bits)}")
        return extras

    def _charge_access(self, ctx, n_left: int, n_right: int,
                       n_build: int) -> None:
        bits = self._bits_for(ctx, n_build)
        self._last_bits = bits
        self.span_extras["radix_bits"] = bits
        self.span_extras["partitions"] = 1 << bits
        costs = ctx.costs
        passes = kernels.radix_passes(bits)
        if passes:
            # CPU side of partitioning: every pass streams both inputs
            # once; every partition pays a fixed setup (this is what
            # makes over-partitioning lose — the E28 sweet spot).
            ctx.charge_cpu(
                "hash",
                passes * costs.radix_partition_ns_per_row
                * (n_left + n_right)
                + (1 << bits) * costs.radix_partition_setup_ns)
        cache = ctx.cache
        if cache is None:
            return
        ns = 0.0
        for _ in range(passes):
            # Partitioning is sequential: read + scatter-write streams.
            ns += cache.sequential_scan(n_left + n_right, 16)
        working_set = max(
            1, (kernels.HASH_TABLE_BYTES_PER_ROW * n_build) >> bits)
        ns += cache.random_accesses(n_build, working_set)
        ns += cache.random_accesses(n_left + n_right - n_build,
                                    working_set)
        ctx.charge_cpu("hash", ns)

    def _match(self, ctx, left_codes: np.ndarray,
               right_codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if ctx.profile.kernels:
            self.span_extras["kernel"] = "join.radix"
        return kernels.radix_join_match(left_codes, right_codes,
                                        self._last_bits)


class NestedLoopJoin(PlanNode):
    """Naive quadratic equi-join; the untuned fallback of the optimizer."""

    category = "arithmetic"

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_keys: Sequence[str], right_keys: Sequence[str]):
        super().__init__([left, right])
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError(
                "join needs equally many (>=1) keys on both sides")
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)

    def name(self) -> str:
        pairs = ", ".join(f"{l}={r}" for l, r in
                          zip(self.left_keys, self.right_keys))
        return f"NestedLoopJoin({pairs})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return _join_schema(self, ctx, self.right_keys)

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        left = self.children[0].estimated_rows(ctx)
        right = self.children[1].estimated_rows(ctx)
        return max(left, right) if min(left, right) else 0.0

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        left, right = child_batches
        n_left, n_right = batch_rows(left), batch_rows(right)
        # The whole point of this operator: quadratic compare cost.
        ctx.charge_cpu("arithmetic",
                       ctx.costs.filter_ns_per_value * n_left * n_right)
        ctx.charge_tuples(n_left * max(1, n_right) if n_left and n_right
                          else n_left + n_right)
        # The rows are matched by hashing (correctness first); the
        # quadratic charge above already covers all of that work,
        # gathers included.
        left, right = kernels.materialize(left), kernels.materialize(right)
        require_columns(left, self.left_keys, self.name() + " (left)")
        require_columns(right, self.right_keys, self.name() + " (right)")
        left_codes, right_codes = kernels.encode_join_keys(
            [left[k] for k in self.left_keys],
            [right[k] for k in self.right_keys])
        li, ri = kernels.join_match(left_codes, right_codes)
        return _join_output(left, right, li, ri, self.right_keys)


class AggFunc(enum.Enum):
    SUM = "sum"
    COUNT = "count"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


class Aggregate(PlanNode):
    """Hash aggregation with optional GROUP BY.

    ``aggregates`` is a sequence of ``(func, expr_or_None, alias)``;
    ``expr`` is None only for ``COUNT(*)``.
    """

    category = "hash"

    def __init__(self, child: PlanNode, group_by: Sequence[str],
                 aggregates: Sequence[Tuple[AggFunc, Optional[Expr], str]]):
        super().__init__([child])
        if not aggregates and not group_by:
            raise PlanError("aggregate needs at least one aggregate or key")
        aliases = [a for __, __, a in aggregates]
        if len(set(aliases) | set(group_by)) != len(aliases) + len(group_by):
            raise PlanError("duplicate output names in aggregation")
        for func, expr, alias in aggregates:
            if expr is None and func is not AggFunc.COUNT:
                raise PlanError(f"{func.value}(*) is not defined")
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    def name(self) -> str:
        aggs = ", ".join(
            f"{f.value}({e if e is not None else '*'}) AS {a}"
            for f, e, a in self.aggregates)
        if self.group_by:
            return f"Aggregate(by {', '.join(self.group_by)}: {aggs})"
        return f"Aggregate({aggs})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        child_schema = self.children[0].schema(ctx)
        out: Dict[str, DataType] = {}
        for key in self.group_by:
            if key not in child_schema:
                raise PlanError(f"GROUP BY column {key!r} not available")
            out[key] = child_schema[key]
        for func, expr, alias in self.aggregates:
            if func is AggFunc.COUNT:
                out[alias] = DataType.INT64
            elif func is AggFunc.AVG:
                out[alias] = DataType.FLOAT64
            else:
                out[alias] = expr.dtype(child_schema)
        return out

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        if not self.group_by:
            return 1.0
        child = self.children[0].estimated_rows(ctx)
        return max(1.0, child ** 0.5)  # square-root heuristic

    def explain_extras(self, ctx) -> List[str]:
        return _kernel_extras(ctx)

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        batch = kernels.materialize_charged(ctx, child_batches[0])
        n = batch_rows(batch)
        costs = ctx.costs
        if ctx.profile.kernels:
            ctx.charge_cpu("hash", costs.kernel_launch_ns
                           + costs.vector_group_ns_per_row * n)
            ctx.charge_cpu("arithmetic",
                           costs.vector_agg_ns_per_value * n
                           * max(1, len(self.aggregates)))
            self.span_extras["kernel"] = "aggregate.vector"
        else:
            ctx.charge_cpu("hash", costs.group_ns_per_row * n)
            ctx.charge_cpu("arithmetic",
                           costs.agg_ns_per_value * n
                           * max(1, len(self.aggregates)))
        ctx.charge_tuples(n)
        child_schema = self.children[0].schema(ctx)

        out: Batch = {}
        if self.group_by:
            group_ids, n_groups = kernels.dict_encode(
                [batch[k] for k in self.group_by])
            self.aux_bytes = 48 * n_groups + 8 * n
            # One stable order of the rows by group serves every
            # aggregate and the key columns.  Output is key-sorted (the
            # dictionary codes ascend with the composite key), and each
            # group's first row stands for its key.
            grouping = kernels.group_order(group_ids, n_groups)
            order, starts = grouping
            first = order[starts]
            for key_name in self.group_by:
                out[key_name] = batch[key_name][first]
        else:
            # A global aggregate always produces exactly one row, even
            # over empty input (COUNT(*) = 0), per SQL semantics.
            group_ids = np.zeros(n, dtype=np.int64)
            n_groups = 1
            grouping = (np.arange(n), np.zeros(1, dtype=np.int64)) \
                if n else None

        for func, expr, alias in self.aggregates:
            values = self._reduce(func, expr, batch, group_ids, n_groups,
                                  grouping)
            if func is AggFunc.COUNT:
                values = values.astype(np.int64)
            elif func is not AggFunc.AVG and expr is not None \
                    and expr.dtype(child_schema) is DataType.INT64 \
                    and not np.isnan(values).any():
                # A NULL result (no input rows) stays a float NaN.
                values = values.astype(np.int64)
            out[alias] = values
        return out

    @staticmethod
    def _reduce(func: AggFunc, expr: Optional[Expr], batch: Batch,
                group_ids: np.ndarray, n_groups: int,
                grouping: Optional[Tuple[np.ndarray, np.ndarray]]
                ) -> np.ndarray:
        """One aggregate per group, with SQL's NULL rules: NULLs (NaN
        in FLOAT64 inputs) are skipped, and an aggregate other than
        COUNT over no non-NULL input is NULL."""
        if n_groups == 0:
            # Grouped aggregation over empty input: zero output rows.
            return np.zeros(0, dtype=np.float64)
        if grouping is None:
            # Only the global aggregate has a group and no rows.
            return np.full(n_groups, 0.0 if func is AggFunc.COUNT
                           else np.nan)
        order, starts = grouping
        counts = np.diff(starts, append=order.size)
        if expr is None:  # COUNT(*)
            return counts
        values = np.asarray(kernels.compile_expr(expr)(batch))
        if values.dtype.kind == "f":
            null = np.isnan(values)
            if null.any():
                counts = counts - kernels.group_count(group_ids[null],
                                                      n_groups)
                if func in (AggFunc.SUM, AggFunc.AVG):
                    values = np.where(null, 0.0, values)
        if func is AggFunc.COUNT:
            return counts
        op = {AggFunc.SUM: "sum", AggFunc.AVG: "sum",
              AggFunc.MIN: "min", AggFunc.MAX: "max"}[func]
        out = kernels.grouped_reduce(values, group_ids, n_groups, op,
                                     grouping)
        if func is AggFunc.AVG:
            out = out / np.maximum(counts, 1)
        out[counts == 0] = np.nan
        return out


class MergeJoin(PlanNode):
    """Equi-join by merging two inputs sorted on their keys.

    Both children MUST deliver rows sorted ascending on the join keys;
    the operator verifies this and raises otherwise (silent wrong
    results are worse than an error).  Cost is linear in the two input
    sizes plus the output — the textbook alternative to hashing when
    sort order is already available.
    """

    category = "sort"

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_key: str, right_key: str):
        super().__init__([left, right])
        self.left_key = left_key
        self.right_key = right_key

    def name(self) -> str:
        return f"MergeJoin({self.left_key}={self.right_key})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return _join_schema(self, ctx, (self.right_key,))

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        left = self.children[0].estimated_rows(ctx)
        right = self.children[1].estimated_rows(ctx)
        return max(left, right) if min(left, right) else 0.0

    @staticmethod
    def _check_sorted(values: np.ndarray, side: str) -> None:
        if len(values) > 1 and np.any(values[1:] < values[:-1]):
            raise PlanError(
                f"MergeJoin {side} input is not sorted on its join key")

    def explain_extras(self, ctx) -> List[str]:
        return _kernel_extras(ctx)

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        left, right = child_batches
        require_columns(left, [self.left_key], self.name() + " (left)")
        require_columns(right, [self.right_key], self.name() + " (right)")
        left = kernels.materialize_charged(ctx, left)
        right = kernels.materialize_charged(ctx, right)
        # Merging compares values across the two inputs: coded string
        # keys decode here.
        lk = np.asarray(left[self.left_key])
        rk = np.asarray(right[self.right_key])
        self._check_sorted(lk, "left")
        self._check_sorted(rk, "right")
        n_left, n_right = len(lk), len(rk)
        ctx.charge_tuples(n_left + n_right)
        if ctx.cache is not None:
            # Merging is purely sequential: one stream over each input.
            ctx.charge_cpu("sort",
                           ctx.cache.sequential_scan(n_left + n_right, 16))
        costs = ctx.costs
        if ctx.profile.kernels:
            ctx.charge_cpu("sort",
                           costs.kernel_launch_ns
                           + costs.vector_join_ns_per_row
                           * (n_left + n_right))
            self.span_extras["kernel"] = "merge.vector"
        else:
            ctx.charge_cpu("sort", costs.filter_ns_per_value
                           * (n_left + n_right))
        li, ri = kernels.merge_match(lk, rk)
        return _join_output(left, right, li, ri, (self.right_key,))


class Distinct(PlanNode):
    """Remove duplicate rows, preserving first-occurrence order."""

    category = "hash"

    def __init__(self, child: PlanNode):
        super().__init__([child])

    def name(self) -> str:
        return "Distinct"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return self.children[0].schema(ctx)

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        child = self.children[0].estimated_rows(ctx)
        return max(1.0, child ** 0.5)

    def explain_extras(self, ctx) -> List[str]:
        return _kernel_extras(ctx)

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        batch = kernels.materialize_charged(ctx, child_batches[0])
        n = batch_rows(batch)
        costs = ctx.costs
        if ctx.profile.kernels:
            ctx.charge_cpu("hash", costs.kernel_launch_ns
                           + costs.vector_distinct_ns_per_row * n)
            self.span_extras["kernel"] = "distinct.vector"
        else:
            ctx.charge_cpu("hash", costs.group_ns_per_row * n)
        ctx.charge_tuples(n)
        idx = kernels.first_occurrence_order([batch[c] for c in batch])
        return {name: arr[idx] for name, arr in batch.items()}


class Sort(PlanNode):
    """Stable multi-key sort."""

    category = "sort"

    def __init__(self, child: PlanNode,
                 keys: Sequence[Tuple[str, bool]]):
        super().__init__([child])
        if not keys:
            raise PlanError("sort needs at least one key")
        self.keys = tuple(keys)  # (column, ascending)

    def name(self) -> str:
        rendered = ", ".join(f"{k} {'ASC' if asc else 'DESC'}"
                             for k, asc in self.keys)
        return f"Sort({rendered})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return self.children[0].schema(ctx)

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        return self.children[0].estimated_rows(ctx)

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        batch = child_batches[0]
        require_columns(batch, [k for k, __ in self.keys], self.name())
        # Sort is a pipeline breaker: gather any pending selection
        # once, then permute materialised columns.
        batch = kernels.materialize_charged(ctx, batch)
        n = batch_rows(batch)
        if n > 1:
            ctx.charge_cpu("sort", ctx.costs.sort_ns_per_compare
                           * n * math.log2(n))
        ctx.charge_tuples(n)
        order = np.arange(n)
        self.aux_bytes = 8 * n  # the permutation vector
        # Stable sorts applied from the least significant key backwards.
        for column, ascending in reversed(self.keys):
            keys = batch[column]
            if isinstance(keys, Dictionary):
                keys = keys.codes  # code order is value order
            values = keys[order]
            if ascending:
                idx = np.argsort(values, kind="stable")
            else:
                # Descending and still stable: sort the reversed input
                # ascending, then reverse, so ties keep input order.
                idx = (n - 1 - np.argsort(values[::-1], kind="stable"))[::-1]
            order = order[idx]
        return {name: arr[order] for name, arr in batch.items()}


class Limit(PlanNode):
    """Keep the first ``n`` rows."""

    category = "scan"

    def __init__(self, child: PlanNode, n: int):
        super().__init__([child])
        if n < 0:
            raise PlanError(f"LIMIT must be >= 0, got {n}")
        self.n = n

    def name(self) -> str:
        return f"Limit({self.n})"

    def schema(self, ctx: ExecutionContext) -> Dict[str, DataType]:
        return self.children[0].schema(ctx)

    def estimated_rows(self, ctx: ExecutionContext) -> float:
        return min(float(self.n), self.children[0].estimated_rows(ctx))

    def _run(self, ctx: ExecutionContext,
             child_batches: List[Batch]) -> Batch:
        batch = child_batches[0]
        base, sel = kernels.split_batch(batch)
        if sel is not None:
            # Truncate the selection instead of materialising.
            return kernels.SelBatch(base, sel[:self.n])
        return {name: arr[:self.n] for name, arr in base.items()}
