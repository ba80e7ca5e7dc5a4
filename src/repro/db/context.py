"""Execution context and cost parameters for MiniDB.

MiniDB queries do *real* work (numpy) and simultaneously charge
*simulated* time to a :class:`~repro.measurement.clocks.VirtualClock`.
The simulated time is what the tutorial experiments report: it is
deterministic, calibrated to a 2008-era laptop, and decomposes into user
(CPU) and system (I/O) shares exactly like the tutorial's tables.

:class:`CostParameters` holds the ns-per-unit constants; the engine's
*tuned* flag and the DBG/OPT :class:`~repro.hardware.compiler.BuildModel`
both act through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.db.buffer import BufferPool
from repro.db.storage import Database
from repro.errors import DatabaseError
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
    #: Charge the vectorized kernel constants (a launch cost per
    #: operator plus the ``vector_*`` per-unit costs) instead of the
    #: per-row loop constants.
    kernels: bool = False
    #: Filters pass on a selection vector and the gather is charged at
    #: the next pipeline breaker; otherwise a kernel profile charges the
    #: gather at the filter.
    late_materialization: bool = False
    #: Charge the Volcano per-tuple interpretation overhead (MySQL-like)
    #: for every tuple every operator touches.
    tuple_overhead: bool = False


#: The execution styles by ``executor`` name, default first.
COST_PROFILES = {profile.name: profile for profile in (
    CostProfile("loop"),
    CostProfile("tuple", tuple_overhead=True),
    CostProfile("vectorized", kernels=True, late_materialization=True),
    CostProfile("vectorized-eager", kernels=True),
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
    output_ns_per_byte: float = 15.0
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

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 0:
                raise DatabaseError(f"cost parameter {name} must be >= 0")

    def scaled(self, factor: float) -> "CostParameters":
        """All CPU constants scaled by *factor* (e.g. a slower machine)."""
        if factor <= 0:
            raise DatabaseError("scale factor must be positive")
        return CostParameters(**{name: value * factor
                                 for name, value in self.__dict__.items()})


class ExecutionContext:
    """Everything an operator needs while executing.

    Charging helpers route CPU cost through the build model (so a DBG
    build slows the right categories) and advance the virtual clock.
    """

    def __init__(self, database: Database, buffer_pool: BufferPool,
                 clock: VirtualClock,
                 counters: Optional[HardwareCounters] = None,
                 build: Optional[BuildModel] = None,
                 costs: Optional[CostParameters] = None,
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
        self.costs = costs if costs is not None else CostParameters()
        #: The execution style's :class:`CostProfile`.
        self.profile = cost_profile(executor)
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
