"""The MiniDB engine facade.

Ties the whole substrate together: parser → optimizer → operators, over a
buffer pool and disk model, charging simulated time to a virtual clock.
The introspection surface follows the tutorial's advice (slides 28, 52):

- :meth:`Engine.execute` — run a query, returning rows plus a
  server-side real/user/system time breakdown;
- :meth:`Engine.explain` — the plan without running it;
- :meth:`Engine.profile` — phase + per-operator timing breakdown;
- :meth:`Engine.trace` — per-operator rows/time lines after execution.

A statement takes one path from text to plan: it is tokenized once,
looked up in the plan cache (when on) by its tokens, and on a miss
parsed from those tokens and planned.  :meth:`Engine.plan` and
:meth:`Engine.explain` take the same path, but only an execution
charges it to the virtual clock.

``Engine.make_cold()`` flushes the buffer pool — the hook cold run
protocols need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.db import kernels
from repro.db.buffer import BufferPool
from repro.db.context import COST_PROFILES, COSTS, ExecutionContext, cost_profile
from repro.db.disk import DiskModel
from repro.db.indexes import HashIndex, IndexCatalog
from repro.db.costmodel import CostModel
from repro.db.actuals import PlanActuals
from repro.db.optimizer import PlannerOptions, count_plan_nodes, plan_statement
from repro.db.parser import parse_select, strip_explain, token_key, tokenize
from repro.db.plan import PlanNode
from repro.db.profiler import ProfileReport
from repro.db.statistics import DEFAULT_BUCKETS, StatisticsCatalog
from repro.db.storage import Database
from repro.errors import DatabaseError
from repro.hardware.cache import CacheModel
from repro.hardware.compiler import BuildMode, BuildModel
from repro.hardware.counters import HardwareCounters
from repro.measurement.clocks import VirtualClock
from repro.measurement.timer import TimeBreakdown
from repro.obs import maybe_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults import FaultInjector


@dataclass(frozen=True)
class EngineConfig:
    """Engine-wide configuration.

    ``tuned=False`` selects the out-of-the-box behaviour of slide 42's
    war story: a tiny buffer pool, no optimizer smarts.
    """

    buffer_pages: int = 4096
    build: BuildModel = field(default_factory=lambda: BuildModel(BuildMode.OPT))
    tuned: bool = True
    naive_joins: bool = False
    disk: DiskModel = field(default_factory=DiskModel)
    #: Execution style, charged as a cost profile
    #: (:class:`~repro.db.context.CostProfile`) over one host
    #: implementation: "loop" (per-row constants), "tuple" (loop plus
    #: Volcano per-tuple overhead), "vectorized" (kernel constants,
    #: gathers charged where they are read) or "vectorized-eager"
    #: (kernel constants, each filter charged the gather of its matches).
    executor: str = "loop"
    #: Reuse physical plans across textually-equivalent statements
    #: (keyed on the statement's tokens, for the current catalog
    #: versions).  Off by default so profiling still observes
    #: parse/optimize phases.
    plan_cache: bool = False
    #: Planner generation: "heuristic" (v1, textual join order) or
    #: "cost" (v2, join-order enumeration + calibrated operator costs;
    #: run :meth:`Engine.analyze` first for histogram-backed estimates).
    optimizer: str = "heuristic"
    #: Cost coefficients for the v2 planner; None uses the analytic
    #: :data:`~repro.db.costmodel.DEFAULT_COST_MODEL`.  Pass the result
    #: of :func:`~repro.db.costmodel.calibrate_cost_model` for measured
    #: coefficients.
    cost_model: Optional[CostModel] = None
    #: Simulated cache hierarchy (:class:`~repro.hardware.cache
    #: .CacheModel`).  None (the default) keeps memory latency invisible
    #: — simulated times match the pre-cache-conscious engine exactly.
    #: With a model set, joins charge cache/memory access latency and
    #: the cost-based planner prices hash vs radix accordingly.
    cache_model: Optional[CacheModel] = None
    #: Let scans prune zone-map blocks against pushed-down predicates.
    #: Off = the unpruned scan behaviour (kept for differential tests).
    zone_maps: bool = True
    #: Force this many radix bits on every RadixHashJoin (None = size
    #: partitions to the cache automatically); E28 sweeps this knob.
    radix_bits: Optional[int] = None

    VALID_EXECUTORS = tuple(COST_PROFILES)
    VALID_OPTIMIZERS = ("heuristic", "cost")

    def __post_init__(self):
        cost_profile(self.executor)
        if self.optimizer not in self.VALID_OPTIMIZERS:
            raise DatabaseError(
                f"unknown optimizer {self.optimizer!r}; valid options: "
                + ", ".join(repr(o) for o in self.VALID_OPTIMIZERS))
        if self.radix_bits is not None and not \
                0 <= self.radix_bits <= kernels.MAX_RADIX_BITS:
            raise DatabaseError(
                f"radix_bits must be in [0, {kernels.MAX_RADIX_BITS}], "
                f"got {self.radix_bits}")

    def planner_options(self) -> PlannerOptions:
        if self.optimizer == "cost":
            return PlannerOptions.cost()
        if self.naive_joins:
            return PlannerOptions.naive()
        return PlannerOptions() if self.tuned else PlannerOptions.untuned()

    @classmethod
    def untuned(cls, **overrides: Any) -> "EngineConfig":
        """Out-of-the-box defaults: small buffer pool, no optimizer smarts.

        The 16MB pool is the classic "default settings often too
        conservative": fine for toy data, but once the working set
        exceeds it, repeated sequential scans thrash under LRU.
        """
        base = cls(buffer_pages=256, tuned=False)
        return replace(base, **overrides)


@dataclass(frozen=True)
class QueryResult:
    """Rows plus the server-side timing of one executed query."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    server_time: TimeBreakdown
    plan: PlanNode
    peak_memory_bytes: int = 0

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[Any]:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise DatabaseError(
                f"result has no column {name!r}; columns: "
                f"{list(self.columns)}") from None
        return [row[idx] for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if self.n_rows != 1 or len(self.columns) != 1:
            raise DatabaseError(
                f"expected a 1x1 result, got {self.n_rows}x"
                f"{len(self.columns)}")
        return self.rows[0][0]

    def formatted_size_bytes(self) -> int:
        """Bytes of the tab-separated textual rendering (result size)."""
        total = 0
        for row in self.rows:
            total += sum(len(_format_value(v)) for v in row)
            total += len(row)  # separators + newline
        return total

    def format_rows(self, limit: int = 20) -> str:
        lines = ["\t".join(self.columns)]
        for row in self.rows[:limit]:
            lines.append("\t".join(_format_value(v) for v in row))
        if self.n_rows > limit:
            lines.append(f"... ({self.n_rows - limit} more rows)")
        return "\n".join(lines)


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _unmeasured(*__: Any) -> None:
    """Planning outside an execution charges and samples nothing."""


class Engine:
    """A configured MiniDB instance over one database.

    Parameters
    ----------
    database:
        The catalogue of tables to run over.
    config:
        Engine configuration; defaults to the tuned defaults.
    clock:
        Simulated time sink.  Pass a shared
        :class:`~repro.measurement.clocks.VirtualClock` to keep several
        engines (e.g. one per design point) on one timeline.
    faults:
        Optional :class:`~repro.faults.FaultInjector`; wires the fault
        sites ``engine.execute`` (here), ``buffer.read`` (buffer pool)
        and ``disk.read`` (disk model) into this instance.
    """

    def __init__(self, database: Database,
                 config: Optional[EngineConfig] = None,
                 clock: Optional[VirtualClock] = None,
                 faults: Optional["FaultInjector"] = None):
        self.database = database
        self.config = config if config is not None else EngineConfig()
        self.clock = clock if clock is not None else VirtualClock()
        self.counters = HardwareCounters()
        self.faults = faults
        disk = self.config.disk if faults is None \
            else self.config.disk.with_faults(faults)
        self.buffer_pool = BufferPool(self.config.buffer_pages,
                                      disk, self.clock,
                                      self.counters, faults=faults)
        self.indexes = IndexCatalog()
        #: Execution-side cache hierarchy (charges latency + counters)
        #: and a counter-free twin for the planner's what-if costing —
        #: costing a plan must not pollute the hardware counters.
        if self.config.cache_model is not None:
            self.cache = self.config.cache_model.hierarchy(self.counters)
            self.planner_cache = self.config.cache_model.hierarchy()
        else:
            self.cache = None
            self.planner_cache = None
        #: Optimizer statistics (ANALYZE output); versioned so the plan
        #: cache invalidates when estimates change.
        self.table_stats = StatisticsCatalog()
        # Plan cache: statement tokens (token_key) -> physical plan,
        # built under the catalog versions in _plan_cache_versions.
        self._plan_cache: Dict[Tuple[Tuple[str, str], ...], PlanNode] = {}
        self._plan_cache_versions: Optional[Tuple[int, int, int]] = None
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: Per-operator actuals of the most recent execution
        #: (:mod:`repro.db.actuals`); see :meth:`last_actuals`.
        self._last_actuals: Optional[PlanActuals] = None

    # -- lifecycle -------------------------------------------------------

    def make_cold(self) -> None:
        """Flush all cached pages: the next query runs cold (slide 32)."""
        self.buffer_pool.flush()

    def create_index(self, table_name: str, column_name: str) -> HashIndex:
        """Build a hash index; the planner will use it for selective
        equality predicates on that column."""
        return self.indexes.create(self.database.table(table_name),
                                   column_name)

    def drop_index(self, table_name: str, column_name: str) -> None:
        self.indexes.drop(table_name, column_name)

    def analyze(self, tables: Optional[List[str]] = None,
                n_buckets: int = DEFAULT_BUCKETS) -> List[str]:
        """ANALYZE: collect optimizer statistics (row counts, NDVs,
        min/max, equi-width histograms) for *tables* (default: all).

        Charges the scan work through the buffer pool and clock like
        any other full-table pass, bumps the statistics version (which
        invalidates cached plans), and returns the analyzed names.
        """
        ctx = self._context()
        with maybe_span("engine.analyze", "engine") as span:
            names = self.table_stats.analyze(self.database, tables,
                                             n_buckets=n_buckets)
            for name in names:
                table = self.database.table(name)
                self.buffer_pool.read_table(name, table.bytes_used)
                ctx.charge_cpu("scan", ctx.costs.scan_ns_per_value
                               * table.n_rows * len(table.column_names))
            if span is not None:
                span.set(tables=",".join(names),
                         stats_version=self.table_stats.version)
        return names

    def _context(self) -> ExecutionContext:
        return ExecutionContext(
            database=self.database, buffer_pool=self.buffer_pool,
            clock=self.clock, counters=self.counters,
            build=self.config.build,
            executor=self.config.executor,
            cache=self.cache,
            zone_maps=self.config.zone_maps,
            radix_bits=self.config.radix_bits)

    # -- query interface ---------------------------------------------------

    def _prepare(self, sql: str, ctx: Optional[ExecutionContext] = None
                 ) -> Tuple[PlanNode, Optional[bool], Tuple[Any, Any]]:
        """The one path from SQL text to a physical plan, behind
        :meth:`profile`, :meth:`plan` and :meth:`explain`:
        ``(plan, hit, marks)``, *hit* None when the plan cache is off.

        The statement is tokenized once: its tokens are the cache key,
        and a miss hands them to the parser.  Plans cached under older
        catalog versions are dropped first; versions only grow, so they
        could never hit again.  Only an execution passes its *ctx*,
        which is charged the lookup, parse and optimize; *marks* are
        then the clock samples after parse and after optimize, and
        ``(None, None)`` otherwise.
        """
        charge = ctx.charge_cpu if ctx is not None else _unmeasured
        mark = self.clock.sample if ctx is not None else _unmeasured
        tokens = key = plan = hit = None
        if self.config.plan_cache:
            with maybe_span("engine.plan_cache", "engine") as cache_span:
                charge("arithmetic", COSTS.plan_cache_lookup_ns)
                tokens = tokenize(sql)
                versions = (self.database.version, self.indexes.version,
                            self.table_stats.version)
                if versions != self._plan_cache_versions:
                    self._plan_cache.clear()
                    self._plan_cache_versions = versions
                key = token_key(tokens)
                plan = self._plan_cache.get(key)
                hit = plan is not None
                if hit:
                    self.plan_cache_hits += 1
                else:
                    self.plan_cache_misses += 1
                if cache_span is not None:
                    cache_span.set(hit=hit)
        if plan is not None:
            # Cached plan: the parse and optimize phases collapse to
            # the lookup.
            after = mark()
            return plan, hit, (after, after)

        with maybe_span("engine.parse", "engine"):
            charge("arithmetic", COSTS.parse_ns_per_char * len(sql))
            statement = parse_select(sql, tokens)
        after_parse = mark()

        with maybe_span("engine.optimize", "engine"):
            plan = plan_statement(statement, self.database,
                                  self.config.planner_options(),
                                  indexes=self.indexes,
                                  stats=self.table_stats,
                                  cost_model=self.config.cost_model,
                                  cache=self.planner_cache)
            # The cost-based planner pays per plan it enumerated on top
            # of the per-node construction cost; heuristic plans carry
            # no optimizer_info, so their charge is unchanged.
            info = getattr(plan, "optimizer_info", None)
            considered = info["plans_considered"] if info else 0
            charge("arithmetic", COSTS.optimize_ns_per_node
                   * (count_plan_nodes(plan) + considered))
        after_optimize = mark()
        if key is not None:
            self._plan_cache[key] = plan
        return plan, hit, (after_parse, after_optimize)

    def plan(self, sql: str) -> PlanNode:
        """Parse and plan without executing (plan-cache aware)."""
        return self._prepare(sql)[0]

    def explain(self, sql: str) -> str:
        """EXPLAIN: the physical plan with cardinality estimates, the
        kernel/build-side choices, and (when enabled) plan-cache status.

        An ``EXPLAIN [ANALYZE]`` prefix on *sql* is accepted and routed:
        ``EXPLAIN ANALYZE`` executes the statement and renders actuals
        (:meth:`explain_analyze`), plain ``EXPLAIN`` is stripped.
        """
        mode, sql = strip_explain(sql)
        if mode == "analyze":
            return self.explain_analyze(sql)
        plan, hit, __ = self._prepare(sql)
        text = plan.explain(self._context())
        if hit is not None:
            status = "hit" if hit else "miss"
            text = (f"-- plan cache: {status} "
                    f"({len(self._plan_cache)} entries)\n") + text
        return text

    def explain_analyze(self, sql: str) -> str:
        """EXPLAIN ANALYZE: execute *sql* and render estimated vs
        actual rows side by side with the per-node q-error, plus
        batches, self time and buffer hits/misses per operator.

        The statement may carry an ``EXPLAIN ANALYZE`` prefix or not.
        All numbers come off the virtual clock and the executed plan,
        so the output is byte-identical across repeated seeded runs and
        across the ``jobs`` values of :func:`~repro.parallel.run_campaign`.
        """
        __, sql = strip_explain(sql)
        self.execute(sql)
        assert self._last_actuals is not None  # set by _profile
        return self._last_actuals.format()

    def last_actuals(self) -> Optional[PlanActuals]:
        """The :class:`~repro.db.actuals.PlanActuals` tree of the most
        recently executed statement (None before the first execution)."""
        return self._last_actuals

    def execute(self, sql: str) -> QueryResult:
        result, __ = self.profile(sql)
        return result

    def profile(self, sql: str) -> Tuple[QueryResult, ProfileReport]:
        """Execute and return both the result and the timing breakdown.

        Under an active :class:`~repro.obs.Tracer` the execution is
        decomposed into ``engine.parse`` / ``engine.optimize`` /
        ``engine.execute`` / ``engine.materialize`` child spans (the
        per-operator spans nest inside ``engine.execute``).
        """
        with maybe_span("engine.query", "engine", sql=sql[:80]):
            return self._profile(sql)

    def _profile(self, sql: str) -> Tuple[QueryResult, ProfileReport]:
        if self.faults is not None:
            self.faults.tick("engine.execute")
        ctx = self._context()
        start = self.clock.sample()
        plan, __, (after_parse, after_optimize) = self._prepare(sql, ctx)

        with maybe_span("engine.execute", "engine") as execute_span:
            batch = plan.execute(ctx)
            if execute_span is not None:
                execute_span.set(
                    buffer_hits=self.buffer_pool.hits,
                    buffer_misses=self.buffer_pool.misses)
        after_execute = self.clock.sample()
        self._last_actuals = PlanActuals.from_plan(
            plan, sql=sql, executor=self.config.executor)

        with maybe_span("engine.materialize", "engine") as mat_span:
            # A root scan, Filter or Limit can hand back a selection
            # vector; gather it once here.
            batch = ctx.materialize(batch)
            columns = tuple(batch)
            # One pass per column: tolist() yields Python ints, floats
            # (NaN for NULL) and strs, decoding a coded column once.
            rows = tuple(zip(*(batch[name].tolist() for name in columns)))
            if mat_span is not None:
                mat_span.set(rows=len(rows))
        total = self.clock.sample() - start
        server_time = TimeBreakdown(label=f"server:{sql[:40]}",
                                    real=total.real, user=total.user,
                                    system=total.system)
        result = QueryResult(columns=columns, rows=rows,
                             server_time=server_time, plan=plan,
                             peak_memory_bytes=ctx.peak_memory_bytes)
        phase_ms = {
            "parse": (after_parse - start).real * 1000.0,
            "optimize": (after_optimize - after_parse).real * 1000.0,
            "execute": (after_execute - after_optimize).real * 1000.0,
        }
        report = ProfileReport(sql=sql, phase_ms=phase_ms,
                               operators=tuple(self._last_actuals.walk()))
        return result, report

    def trace(self, sql: str) -> str:
        """TRACE: execute and render per-operator rows and self-times."""
        __, report = self.profile(sql)
        lines = [f"TRACE {sql}"]
        lines.extend(report.operator_line(op) for op in report.operators)
        return "\n".join(lines)

    # -- introspection ------------------------------------------------------

    def describe_config(self) -> Dict[str, str]:
        """Tuning disclosure: every knob that shapes performance.

        Cross-system comparisons (:mod:`repro.db.systems`) publish this
        per contender so undisclosed tuning — the most common pitfall in
        Taipalus's DBMS-comparison survey — is machine-checkable.
        """
        config = self.config
        return {
            "backend": "minidb",
            "executor": config.executor,
            "optimizer": config.optimizer,
            "buffer_pages": str(config.buffer_pages),
            "build_mode": config.build.mode.value,
            "tuned": str(config.tuned),
            "plan_cache": str(config.plan_cache),
            "cost_model": ("calibrated" if config.cost_model is not None
                           else "default"),
            "cache_model": (f"l2={config.cache_model.l2_kb}KB"
                            if config.cache_model is not None else "none"),
            "zone_maps": str(config.zone_maps),
            "radix_bits": ("auto" if config.radix_bits is None
                           else str(config.radix_bits)),
        }

    def statistics(self) -> Dict[str, float]:
        """Engine-level counters for analysis (CSI) work.

        The ``last_plan_*`` keys summarise the most recent execution's
        per-operator actuals (0.0 before the first execution); the full
        :class:`~repro.db.actuals.PlanActuals` tree is available from
        :meth:`last_actuals`.
        """
        sample = self.clock.sample()
        actuals = self._last_actuals
        return {
            "simulated_real_s": sample.real,
            "simulated_user_s": sample.user,
            "simulated_system_s": sample.system,
            "buffer_hits": float(self.buffer_pool.hits),
            "buffer_misses": float(self.buffer_pool.misses),
            "buffer_hit_rate": self.buffer_pool.hit_rate(),
            "buffer_evictions": float(self.buffer_pool.evictions),
            "io_pages_read": float(self.counters.read("io_reads")),
            "plan_cache_hits": float(self.plan_cache_hits),
            "plan_cache_misses": float(self.plan_cache_misses),
            "plan_cache_size": float(len(self._plan_cache)),
            "stats_version": float(self.table_stats.version),
            "stats_tables_analyzed": float(len(self.table_stats)),
            "stats_feedback_hints": float(self.table_stats.n_hints),
            "last_plan_nodes": float(actuals.n_nodes) if actuals else 0.0,
            "last_plan_rows": float(actuals.root.actual_rows)
            if actuals else 0.0,
            "last_plan_median_qerror": actuals.median_qerror()
            if actuals else 0.0,
            "last_plan_max_qerror": actuals.max_qerror()
            if actuals else 0.0,
        }

    # QueryResult carries per-query peak memory; engine-wide peaks are
    # per-execution (see ExecutionContext.peak_memory_bytes).
