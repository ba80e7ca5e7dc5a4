"""Execution context and the price of MiniDB's simulated machine.

MiniDB queries do *real* work (numpy) and simultaneously charge
*simulated* time to a :class:`~repro.measurement.clocks.VirtualClock`.
The simulated time is what the tutorial experiments report: it is
deterministic, calibrated to a 2008-era laptop, and decomposes into user
(CPU) and system (I/O) shares exactly like the tutorial's tables.

This module prices that machine.  :class:`CostParameters` holds the
ns-per-unit constants, :data:`PRICE_TABLE` says which constant each
named operator charge multiplies under each cost profile, and
:func:`join_access_ns` prices a hash join's partitioning passes and
memory accesses for the executor and the planner alike.
:class:`ExecutionContext` also makes and prices every gather of a
selection vector, so a profile's ``late_materialization`` is read here
only.  The DBG/OPT :class:`~repro.hardware.compiler.BuildModel` scales
every CPU charge; the engine's *tuned* flag acts through the planner
options instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.db import kernels
from repro.db.buffer import BufferPool
from repro.db.storage import Database
from repro.errors import DatabaseError
from repro.hardware.cache import DEFAULT_CACHE_MODEL
from repro.hardware.compiler import BuildMode, BuildModel
from repro.hardware.counters import HardwareCounters
from repro.measurement.clocks import VirtualClock


@dataclass(frozen=True)
class CostProfile:
    """The cost constants one execution style charges.

    Every style runs the same host code, the kernels of
    :mod:`repro.db.kernels`; a profile only decides what each charge
    site charges to the simulated clock.  The tutorial's contrast of
    tuple-at-a-time and column-at-a-time execution (slide 54; E05, E22,
    E23) is a claim about the simulated machine, so it lives here.
    """

    #: The ``executor`` value that selects this profile.
    name: str
    #: The :data:`PRICE_TABLE` column this profile charges, and its
    #: EXPLAIN ``kernel=`` label: "loop" (the per-row constants) or
    #: "vectorized" (the kernel constants plus a launch per kernel).
    family: str = "loop"
    #: Where a selection vector's gather is charged, and whether its
    #: ``sel`` array counts in the working set.  Late: where the rows
    #: are read (a predicate, a pipeline breaker, the result), ``sel``
    #: counted.  Eager: at the Filter (``filter.gather``), as if the
    #: rows were gathered there.  The host code is the same either way.
    late_materialization: bool = False
    #: Charge the Volcano per-tuple interpretation overhead (MySQL-like)
    #: for every tuple every operator touches.
    tuple_overhead: bool = False


#: The execution styles by ``executor`` name, default first.
COST_PROFILES = {profile.name: profile for profile in (
    CostProfile("loop"),
    CostProfile("tuple", tuple_overhead=True),
    CostProfile("vectorized", "vectorized", late_materialization=True),
    CostProfile("vectorized-eager", "vectorized"),
)}


def cost_profile(executor: str) -> CostProfile:
    """The profile named *executor*; unknown names fail fast."""
    try:
        return COST_PROFILES[executor]
    except KeyError:
        raise DatabaseError(
            f"unknown executor {executor!r}; valid options: "
            + ", ".join(repr(e) for e in COST_PROFILES)) from None


@dataclass(frozen=True)
class CostParameters:
    """Simulated CPU cost constants (nanoseconds).

    The defaults approximate a 1.5 GHz Pentium M running an optimized
    build.  ``tuple_overhead_ns`` is the per-tuple, per-operator
    interpretation cost paid only under the ``tuple`` profile.
    """

    scan_ns_per_value: float = 10.0
    filter_ns_per_value: float = 20.0
    project_ns_per_value: float = 15.0
    hash_build_ns_per_row: float = 150.0
    hash_probe_ns_per_row: float = 100.0
    sort_ns_per_compare: float = 80.0
    agg_ns_per_value: float = 30.0
    group_ns_per_row: float = 120.0
    parse_ns_per_char: float = 400.0
    optimize_ns_per_node: float = 25_000.0
    tuple_overhead_ns: float = 600.0
    # Vectorized-kernel constants (see repro.db.kernels).  One fused
    # primitive per batch replaces a per-row interpreter loop, so the
    # per-unit costs drop by roughly an order of magnitude while each
    # kernel invocation pays a fixed launch cost.
    vector_filter_ns_per_value: float = 2.5
    vector_project_ns_per_value: float = 2.0
    vector_join_ns_per_row: float = 12.0
    vector_group_ns_per_row: float = 15.0
    vector_agg_ns_per_value: float = 4.0
    vector_distinct_ns_per_row: float = 12.0
    gather_ns_per_value: float = 1.0
    kernel_launch_ns: float = 4_000.0
    plan_cache_lookup_ns: float = 1_500.0
    # Cache-conscious execution (radix join / zone maps).  The radix
    # join streams both inputs once per partitioning pass and pays a
    # fixed setup per partition; the memory-latency side of the story
    # comes from the engine's CacheModel, not from these constants.
    radix_partition_ns_per_row: float = 6.0
    radix_partition_setup_ns: float = 500.0


#: The constants every execution charges.
COSTS = CostParameters()

#: The price table: what each named charge an operator issues costs
#: under each profile family.  A charge is one ``charge_cpu`` call for
#: some units (values, rows, build rows or probe rows).  Its row names
#: the :class:`CostParameters` constant the loop family and the
#: vectorized family multiply the units by (None: that family issues
#: no call), whether the vectorized family adds ``kernel_launch_ns``,
#: and the ``kernel`` span label a vectorized profile records.  A new
#: profile is one :data:`COST_PROFILES` row.
PRICE_TABLE = {
    # charge: (loop family, vectorized family, launch, kernel label)
    "filter": ("filter_ns_per_value", "vector_filter_ns_per_value", True, "filter.vector"),
    "filter.gather": (None, "gather_ns_per_value", False, None),
    "project.launch": (None, "kernel_launch_ns", False, "project.vector"),
    "project": ("project_ns_per_value", "vector_project_ns_per_value", False, None),
    "hash.build": ("hash_build_ns_per_row", None, False, None),
    "hash.probe": ("hash_probe_ns_per_row", None, False, None),
    "hash.join": (None, "vector_join_ns_per_row", True, "join.vector"),
    "radix.join": (None, "vector_join_ns_per_row", True, "join.radix"),
    "merge": ("filter_ns_per_value", "vector_join_ns_per_row", True, "merge.vector"),
    "group": ("group_ns_per_row", "vector_group_ns_per_row", True, "aggregate.vector"),
    "aggregate": ("agg_ns_per_value", "vector_agg_ns_per_value", False, None),
    "distinct": ("group_ns_per_row", "vector_distinct_ns_per_row", True, "distinct.vector"),
}


def _family_prices(vectorized: bool):
    """One family's column of :data:`PRICE_TABLE`, resolved once:
    ``{charge: (ns per unit, fixed ns, kernel label)}``, or None for a
    charge the family does not issue."""
    prices = {}
    for name, (loop, vector, launch, label) in PRICE_TABLE.items():
        constant = vector if vectorized else loop
        prices[name] = None if constant is None else (
            getattr(COSTS, constant),
            COSTS.kernel_launch_ns if vectorized and launch else 0.0,
            label if vectorized else None)
    return prices


_PRICES = {"loop": _family_prices(False),
           "vectorized": _family_prices(True)}


def partition_bits(cache, n_build: int,
                   forced: Optional[int] = None) -> int:
    """Radix bits of a join that builds on *n_build* rows: *forced*,
    clamped to the legal range, or else the fewest bits that fit each
    partition's hash table in the last level of *cache* (the default
    L2 when there is no cache model)."""
    if forced is not None:
        return max(0, min(int(forced), kernels.MAX_RADIX_BITS))
    if cache is not None and cache.levels:
        cache_bytes = cache.levels[-1].size_bytes
    else:
        cache_bytes = DEFAULT_CACHE_MODEL.l2_bytes
    return kernels.radix_bits_for(n_build, cache_bytes)


def join_access_ns(cache, n_build: int, n_probe: int,
                   bits: int) -> Tuple[float, float]:
    """``(partition_ns, memory_ns)`` of a hash join split on *bits*
    radix bits (0: a plain hash join).

    Every partitioning pass streams both inputs once and every
    partition pays a fixed setup; over-partitioning loses on this term,
    which sets E28's sweet spot.  With a *cache* hierarchy, building
    and probing are random accesses into a hash table the size of one
    partition, so an out-of-cache plain build pays memory latency on
    almost every probe, which is the cost the radix join removes.
    Without one, *memory_ns* is 0.
    """
    n_total = n_build + n_probe
    passes = kernels.radix_passes(bits)
    partition_ns = 0.0
    if passes:
        partition_ns = (passes * COSTS.radix_partition_ns_per_row * n_total
                        + (1 << bits) * COSTS.radix_partition_setup_ns)
    memory_ns = 0.0
    if cache is not None:
        for _ in range(passes):
            # Partitioning is sequential: read + scatter-write streams.
            memory_ns += cache.sequential_scan(n_total, 16)
        working_set = max(
            1, (kernels.HASH_TABLE_BYTES_PER_ROW * n_build) >> bits)
        memory_ns += cache.random_accesses(n_build, working_set)
        memory_ns += cache.random_accesses(n_probe, working_set)
    return partition_ns, memory_ns


class ExecutionContext:
    """Everything an operator needs while executing.

    Charging helpers route CPU cost through the build model (so a DBG
    build slows the right categories) and advance the virtual clock.
    """

    def __init__(self, database: Database, buffer_pool: BufferPool,
                 clock: VirtualClock,
                 counters: Optional[HardwareCounters] = None,
                 build: Optional[BuildModel] = None,
                 executor: str = "loop",
                 cache=None,
                 zone_maps: bool = True,
                 radix_bits: Optional[int] = None):
        self.database = database
        self.buffer_pool = buffer_pool
        self.clock = clock
        self.counters = counters if counters is not None \
            else buffer_pool.counters
        self.build = build if build is not None else BuildModel(BuildMode.OPT)
        self.costs = COSTS
        #: The execution style's :class:`CostProfile`, and its column of
        #: the price table.
        self.profile = cost_profile(executor)
        self.prices = _PRICES[self.profile.family]
        #: Optional :class:`~repro.hardware.cache.CacheHierarchy`; when
        #: set, joins charge simulated memory-access latency on top of
        #: their per-row CPU cost (the memory wall becomes visible).
        self.cache = cache
        #: Whether scans may prune zone-map blocks against pushed-down
        #: predicates (off = the pre-cache-conscious behaviour, kept for
        #: pruned-vs-unpruned differential testing).
        self.zone_maps = zone_maps
        #: Forced radix-bit count for RadixHashJoin (None = size each
        #: partition to the cache automatically); E28 sweeps this.
        self.radix_bits = radix_bits
        #: Largest per-operator working set seen this execution (bytes).
        self.peak_memory_bytes = 0

    def charge_cpu(self, category: str, ns: float) -> None:
        """Charge CPU nanoseconds, scaled by the build model."""
        if ns < 0:
            raise DatabaseError("cannot charge negative CPU time")
        scaled = self.build.scale_cpu_ns(category, ns)
        self.clock.advance(cpu_seconds=scaled / 1e9)

    def charge(self, node, name: str, category: str,
               units: int = 1) -> None:
        """Charge :data:`PRICE_TABLE`'s *name* for *units* under this
        profile, and record its kernel label on *node*'s span."""
        price = self.prices[name]
        if price is None:
            return
        per_unit_ns, fixed_ns, label = price
        self.charge_cpu(category, fixed_ns + per_unit_ns * units)
        if label is not None:
            node.span_extras["kernel"] = label

    def charge_join_access(self, n_build: int, n_probe: int,
                           bits: int) -> None:
        """Charge a hash join's partitioning passes, if any, then its
        memory accesses, if the engine has a cache model
        (:func:`join_access_ns`)."""
        partition_ns, memory_ns = join_access_ns(self.cache, n_build,
                                                 n_probe, bits)
        if partition_ns:
            self.charge_cpu("hash", partition_ns)
        if self.cache is not None:
            self.charge_cpu("hash", memory_ns)

    def select(self, node, base, sel) -> kernels.SelBatch:
        """A Filter's matches, the *sel* rows of *base*, passed on as a
        selection vector.  An eager profile charges their gather here
        (``filter.gather``), a late one where they are read."""
        if not self.profile.late_materialization and sel.size and base:
            self.charge(node, "filter.gather", "scan",
                        int(sel.size) * len(base))
        return kernels.SelBatch(base, sel)

    def materialize(self, batch, names: Optional[Sequence[str]] = None):
        """*batch* as a plain dict: if it carries a selection vector, its
        *names* columns (all by default) gathered once, and charged
        under a late profile; an eager one charged it at :meth:`select`."""
        if not isinstance(batch, kernels.SelBatch):
            return batch
        n_rows = batch.rows()
        n_columns = len(batch.base if names is None else names)
        if self.profile.late_materialization and n_rows and n_columns:
            self.charge_cpu("scan", self.costs.gather_ns_per_value
                            * n_rows * n_columns)
        return kernels.gather(batch.base, batch.sel, names)

    def sel_bytes(self, batch) -> int:
        """What *batch*'s ``sel`` array adds to a working set: 8 bytes a
        row under a late profile; an eager one counts rows as gathered."""
        if self.profile.late_materialization and \
                isinstance(batch, kernels.SelBatch):
            return 8 * batch.rows()
        return 0

    def charge_tuples(self, n_rows: int) -> None:
        """Per-tuple interpretation overhead (``tuple`` profile only)."""
        if n_rows < 0:
            raise DatabaseError("row count must be >= 0")
        if self.profile.tuple_overhead and n_rows:
            self.charge_cpu("arithmetic",
                            n_rows * self.costs.tuple_overhead_ns)

    def track_memory(self, n_bytes: int) -> None:
        """Record one operator's working-set size; keeps the peak."""
        if n_bytes < 0:
            raise DatabaseError("memory size must be >= 0")
        if n_bytes > self.peak_memory_bytes:
            self.peak_memory_bytes = n_bytes

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now
