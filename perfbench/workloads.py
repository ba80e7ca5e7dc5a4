"""The benchmark's three workloads: ``tpch``, ``adhoc`` and ``campaign``.

Each workload does a fixed amount of work chosen before it starts (a
number of streams, statements or campaigns), never "as much as fits in
the time": a faster program then finishes the same work sooner instead
of doing more of it, so no metric depends on how far a run got.  The
work is drawn from the workload seed; see README.md in this directory
for why each workload exists and which layers it puts on the critical
path.

The program is driven only through its public API: a
``MiniDBVectorizedSystem`` for the statement workloads, and
``repro.parallel.run_campaign`` for the campaign.  Calls go through
module attributes (``tpch.generate_tpch``, ``executor.run_campaign``,
...) so that a traced run's wrappers see them.
"""

from __future__ import annotations

import gc
import importlib
import math
import tempfile
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import FactorSpace, TwoLevelFactorialDesign, two_level
from repro.core import replication, variation
from repro.db import Client, Engine, EngineConfig, FileSink, kernels
from repro.db.systems import (
    MiniDBVectorizedSystem,
    SQLiteSystem,
    SystemResult,
    results_match,
)
from repro.errors import ClientDisconnectError, ReproError
from repro.faults import FaultPlan
from repro.faults.plan import FaultRule
from repro.hardware.compiler import BuildMode, BuildModel
from repro.measurement import (
    PickRule,
    RetryPolicy,
    RunProtocol,
    State,
    VirtualClock,
    Workload,
)
from repro.parallel import CampaignSpec, CampaignStack
from repro.parallel import executor
from repro.workloads import distributions as dist
from repro.workloads import tpch

from perfbench.layers import LayerTracer

# The package re-exports a function named ``speedup``; the module is
# what a traced run patches.
speedup = importlib.import_module("repro.measurement.speedup")

#: TPC-H data seed of the ``tpch``/``adhoc`` database.  The data is the
#: same on every run: whether a tie in Q18's ``ORDER BY total_qty DESC``
#: straddles its ``LIMIT 100`` depends on the data, and with data drawn
#: from the workload seed some seeds hide that known defect (4 of seeds
#: 0-29 at sf=0.01).  The workload seed drives the client instead:
#: stream order on ``tpch``, every literal on ``adhoc``.
DATA_SEED = 42
TPCH_SF = 0.01
CAMPAIGN_SF = 0.003

#: Outputs known to be wrong at the time the benchmark was defined.  They
#: stay in the workload and count as failed operations; a mismatch on
#: any other template makes the run incorrect.
KNOWN_WRONG = {
    ("tpch", "Q13"): "Sort reverses a stable argsort for DESC keys, so "
                     "ties under ORDER BY c_count DESC, c_custkey come "
                     "out custkey-descending and LIMIT 100 keeps other "
                     "rows",
    ("tpch", "Q18"): "the same Sort defect, on ties under ORDER BY "
                     "total_qty DESC, o_orderkey",
}


@dataclass
class Timed:
    """What one timed region did, with its host and simulated clocks."""

    wall_s: float = 0.0
    ops: int = 0
    failed: int = 0
    #: ``(completed ops, wall seconds)`` of each sub-run, in order.
    subruns: List[Tuple[int, float]] = field(default_factory=list)
    #: Host latency (s) of every completed op, by template.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Simulated (virtual-clock) ms of every completed op.
    sim_ms: List[float] = field(default_factory=list)
    #: Exact per-layer counters read from public accessors.
    counts: Dict[str, float] = field(default_factory=dict)

    def record(self, template: str, latency_s: float) -> None:
        self.latencies.setdefault(template, []).append(latency_s)


@dataclass
class Check:
    """Outcome of a workload's output checks."""

    checked: int = 0
    #: Ops whose output was wrong, by template.
    wrong: Dict[str, int] = field(default_factory=dict)
    #: Failures no known defect explains (the run is then incorrect).
    unexpected: List[str] = field(default_factory=list)


def _clear_process_caches() -> None:
    """Start a set-up from the same process-wide state every time."""
    kernels.expression_cache_clear()
    campaign_database.cache_clear()
    gc.collect()


#: Sub-runs a statement workload's timed region is split into; the
#: throughput reported is their median.
SUBRUNS = 10


# ---------------------------------------------------------------------------
# Statement workloads: tpch and adhoc
# ---------------------------------------------------------------------------

class StatementWorkload:
    """One closed-loop client sending statements to MiniDB, one at a time."""

    name = ""
    #: Statements per cycle of the template mix.
    cycle = 1

    def __init__(self, seed: int, n_ops: int, sf: float = TPCH_SF):
        self.seed = seed
        self.n_ops = n_ops
        self.sf = sf
        self.system: Optional[MiniDBVectorizedSystem] = None
        #: Results kept for the checks: op index -> (template, sql, result).
        self._kept: Dict[int, Tuple[str, str, SystemResult]] = {}

    # -- subclass hooks -------------------------------------------------------

    def prepare(self, system: MiniDBVectorizedSystem) -> None:
        """Set-up work after ANALYZE (indexes)."""

    def warmup(self) -> List[Tuple[str, str]]:
        raise NotImplementedError

    def statements(self) -> List[Tuple[str, str]]:
        """The timed statements as ``(template, sql)``, fixed by the seed."""
        raise NotImplementedError

    def checked_ops(self) -> range | List[int]:
        """Indices of the timed statements whose results are checked."""
        raise NotImplementedError

    # -- phases ---------------------------------------------------------------

    def setup(self) -> None:
        self.system = None
        self._kept = {}
        _clear_process_caches()
        database = tpch.generate_tpch(sf=self.sf, seed=DATA_SEED)
        system = MiniDBVectorizedSystem(
            EngineConfig(optimizer="cost", plan_cache=True))
        system.connect()
        system.load(database)
        system.engine.analyze()
        self.prepare(system)
        for __, sql in self.warmup():
            system.execute(sql)
        self.system = system

    def run(self, tracer: Optional[LayerTracer] = None) -> Timed:
        system = self.system
        assert system is not None, "setup() first"
        engine = system.engine
        statements = self.statements()
        keep = set(self.checked_ops())
        timed = Timed()
        before = engine.statistics()
        cache_before = kernels.expression_cache_info()
        # Sub-runs hold whole template cycles, so each has the same mix.
        n = len(statements)
        n_cycles = max(1, n // self.cycle)
        k = min(SUBRUNS, n_cycles)
        cuts = [round(i * n_cycles / k) * self.cycle for i in range(k)] + [n]
        start = time.perf_counter()
        for lo, hi in zip(cuts, cuts[1:]):
            sub_start = time.perf_counter()
            sub_failed = timed.failed
            for i in range(lo, hi):
                template, sql = statements[i]
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        result = system.execute(sql)
                    else:
                        with tracer.op(str(i)), tracer.window():
                            result = system.execute(sql)
                except ReproError:
                    timed.failed += 1
                    continue
                timed.record(template, time.perf_counter() - t0)
                timed.sim_ms.append(result.simulated_s * 1000.0)
                if i in keep:
                    self._kept[i] = (template, sql, result)
            timed.subruns.append((hi - lo - (timed.failed - sub_failed),
                                  time.perf_counter() - sub_start))
        timed.wall_s = time.perf_counter() - start
        timed.ops = len(statements)
        after = engine.statistics()
        cache_after = kernels.expression_cache_info()
        hits = after["plan_cache_hits"] - before["plan_cache_hits"]
        lookups = hits + after["plan_cache_misses"] \
            - before["plan_cache_misses"]
        expr_hits = cache_after["hits"] - cache_before["hits"]
        expr_lookups = expr_hits + cache_after["misses"] \
            - cache_before["misses"]
        timed.counts = {
            "plan_cache_hit_rate": hits / lookups if lookups else 0.0,
            "plan_cache_entries": after["plan_cache_size"],
            "expr_cache_hit_rate": expr_hits / expr_lookups
            if expr_lookups else 0.0,
            "expr_cache_entries": float(cache_after["size"]),
        }
        return timed

    def check(self) -> Check:
        """Compare the kept results with SQLite on the same data."""
        assert self.system is not None, "setup() first"
        reference = SQLiteSystem()
        reference.load(self.system.engine.database)
        expected: Dict[str, SystemResult] = {}
        outcome = Check()
        try:
            for i in sorted(self._kept):
                template, sql, result = self._kept[i]
                want = expected.get(sql)
                if want is None:
                    want = expected[sql] = reference.execute(sql)
                outcome.checked += 1
                if not results_match(result, want):
                    outcome.wrong[template] = \
                        outcome.wrong.get(template, 0) + 1
                    if (self.name, template) not in KNOWN_WRONG:
                        outcome.unexpected.append(
                            f"op {i} ({template}) differs from SQLite: {sql}")
        finally:
            reference.close()
        return outcome


class TpchWorkload(StatementWorkload):
    """Hot TPC-H-like streams: every statement hits the plan cache."""

    name = "tpch"
    cycle = len(tpch.all_query_numbers())

    def warmup(self) -> List[Tuple[str, str]]:
        return [(f"Q{q}", tpch.tpch_query(q))
                for q in tpch.all_query_numbers()]

    def statements(self) -> List[Tuple[str, str]]:
        # Each stream is a seeded permutation of the 22 queries, as in
        # TPC-H's throughput test; the template mix is fixed.
        rng = dist.make_rng(self.seed)
        numbers = tpch.all_query_numbers()
        n_streams = max(1, self.n_ops // len(numbers))
        out = []
        for __ in range(n_streams):
            for index in rng.permutation(len(numbers)):
                q = numbers[int(index)]
                out.append((f"Q{q}", tpch.tpch_query(q)))
        return out

    def checked_ops(self) -> range:
        return range(len(self.statements()))


#: The adhoc statement mix, one cycle of 20 statements: 8 point lookups,
#: 6 short ranges and 3 of each 3-table join.  The cycle is fixed, so a
#: seed changes the literals and never the mix.
ADHOC_CYCLE = ("point", "range", "point", "join_snr", "range", "point",
               "join_pps", "range", "point", "point", "range", "join_snr",
               "point", "join_pps", "range", "point", "join_snr", "range",
               "point", "join_pps")

#: Point-lookup targets (indexed in ``prepare``), in turn.
POINT_TABLES = (("orders", "o_orderkey",
                 "o_custkey, o_orderstatus, o_totalprice, o_orderdate"),
                ("customer", "c_custkey",
                 "c_name, c_nationkey, c_acctbal, c_mktsegment"),
                ("part", "p_partkey", "p_name, p_brand, p_type, p_size"))

#: Share of key draws that come from a hot set of 1% of the keys; hot
#: keys repeat, so their statements hit the plan cache.
HOT_SHARE = 0.2
ADHOC_WARMUP = 100
ADHOC_CHECKED = 300


class AdhocWorkload(StatementWorkload):
    """Short selective statements with fresh literals: parse and plan
    dominate, and the plan cache mostly misses and grows."""

    name = "adhoc"
    cycle = len(ADHOC_CYCLE)

    def prepare(self, system: MiniDBVectorizedSystem) -> None:
        for table, column, __ in POINT_TABLES:
            system.engine.create_index(table, column)
        # Keys run 1..n_rows in every table the statements draw from.
        database = system.engine.database
        self._n_keys = {table: database.table(table).n_rows
                        for table in ("orders", "customer", "part")}

    def _draw(self, rng: np.random.Generator, n: int) -> List[Tuple[str, str]]:
        out = []
        points = 0
        for i in range(n):
            kind = ADHOC_CYCLE[i % len(ADHOC_CYCLE)]
            if kind == "point":
                table, key, columns = POINT_TABLES[points % len(POINT_TABLES)]
                points += 1
                k = self._key(rng, self._n_keys[table])
                sql = f"SELECT {key}, {columns} FROM {table} WHERE {key} = {k}"
            elif kind == "range":
                lo = self._key(rng, self._n_keys["orders"])
                hi = lo + int(rng.integers(1, 17))
                sql = ("SELECT COUNT(*) AS n_lines, SUM(l_quantity) AS qty, "
                       "SUM(l_extendedprice) AS price FROM lineitem "
                       f"WHERE l_orderkey >= {lo} AND l_orderkey < {hi}")
            elif kind == "join_snr":
                region = tpch.REGIONS[int(rng.integers(len(tpch.REGIONS)))]
                balance = round(float(rng.uniform(-999.99, 9999.99)), 2)
                sql = ("SELECT s_name, s_acctbal, n_name FROM supplier "
                       "JOIN nation ON s_nationkey = n_nationkey "
                       "JOIN region ON n_regionkey = r_regionkey "
                       f"WHERE r_name = '{region}' AND s_acctbal > {balance}")
            else:
                brand = f"Brand#{int(rng.integers(1, 6))}{int(rng.integers(1, 6))}"
                size = int(rng.integers(1, 51))
                sql = ("SELECT p_partkey, p_brand, s_name, ps_supplycost "
                       "FROM part JOIN partsupp ON p_partkey = ps_partkey "
                       "JOIN supplier ON ps_suppkey = s_suppkey "
                       f"WHERE p_brand = '{brand}' AND p_size = {size}")
            out.append((kind, sql))
        return out

    @staticmethod
    def _key(rng: np.random.Generator, n_keys: int) -> int:
        """A key in ``1..n_keys``, from the hot 1% with HOT_SHARE odds."""
        if rng.random() < HOT_SHARE:
            return 1 + int(rng.integers(max(1, n_keys // 100)))
        return 1 + int(rng.integers(n_keys))

    def _all(self) -> List[Tuple[str, str]]:
        rng = dist.make_rng(self.seed)
        return self._draw(rng, ADHOC_WARMUP + self.n_ops)

    def warmup(self) -> List[Tuple[str, str]]:
        return self._all()[:ADHOC_WARMUP]

    def statements(self) -> List[Tuple[str, str]]:
        return self._all()[ADHOC_WARMUP:]

    def checked_ops(self) -> List[int]:
        rng = dist.make_rng(self.seed + 1)
        n = min(self.n_ops, ADHOC_CHECKED)
        return sorted(int(i) for i in
                      rng.choice(self.n_ops, size=n, replace=False))


# ---------------------------------------------------------------------------
# Campaign workload
# ---------------------------------------------------------------------------

def campaign_space() -> FactorSpace:
    return FactorSpace([
        two_level("buffer", "large", "small"),
        two_level("tuned", "yes", "no"),
        two_level("build", "opt", "dbg"),
    ])


#: Hot runs: one warm-up, three measured repetitions (the replications
#: the error analysis needs), reporting the last, as the tutorial does.
CAMPAIGN_PROTOCOL = RunProtocol(state=State.HOT, repetitions=3,
                                pick=PickRule.LAST, warmups=1)
CAMPAIGN_QUERIES = (1, 6)
#: Every point's first request is dropped, before it runs, so retries
#: fire in every campaign and every point still completes.  The faults
#: follow a schedule rather than a probability: a seed-dependent number
#: of retries made the latency tail and the simulated time per point
#: depend on the seed (p95 spread 32% over 5 seeds at p=0.01 per request).
FAULT_SCHEDULE = (1,)
CAMPAIGN_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.05,
                             backoff_factor=2.0)


@lru_cache(maxsize=1)
def campaign_database(sf: float, data_seed: int):
    """The campaign's data, generated once per process (as E21 does):
    every design point rebuilds its stack, but not its data."""
    return tpch.generate_tpch(sf=sf, seed=data_seed)


class CampaignQueries(Workload):
    """One design point's stack: TPC-H Q1 and Q6 through a client."""

    def __init__(self, database, clock: VirtualClock, faults):
        self.database = database
        self.clock = clock
        self.faults = faults
        self.client: Optional[Client] = None

    def setup(self, config: Mapping[str, Any]) -> None:
        engine_config = EngineConfig(
            buffer_pages=4096 if config["buffer"] == "large" else 8,
            tuned=config["tuned"] == "yes",
            build=BuildModel(BuildMode.OPT if config["build"] == "opt"
                             else BuildMode.DBG))
        engine = Engine(self.database, engine_config, clock=self.clock,
                        faults=self.faults)
        self.client = Client(engine, FileSink())

    def run(self) -> None:
        for q in CAMPAIGN_QUERIES:
            self.client.run(tpch.tpch_query(q))

    def make_cold(self) -> None:
        self.client.engine.make_cold()


def build_campaign_stack(params: Mapping[str, Any],
                         seed: int) -> CampaignStack:
    """Campaign factory (``CampaignSpec.factory``): one point's stack."""
    clock = VirtualClock()
    injector = FaultPlan(rules=(FaultRule(
        site="client.run", error=ClientDisconnectError,
        schedule=FAULT_SCHEDULE),), seed=seed).injector()
    workload = CampaignQueries(
        campaign_database(float(params["sf"]), int(params["data_seed"])),
        clock, injector)

    def extra_metrics(config: Mapping[str, Any]) -> Dict[str, float]:
        return {"faults_injected": float(injector.n_injected),
                "sim_ms": clock.sample().real * 1000.0}

    return CampaignStack(design=TwoLevelFactorialDesign(campaign_space()),
                         workload=workload, protocol=CAMPAIGN_PROTOCOL,
                         clock=clock, retry=CAMPAIGN_RETRY,
                         extra_metrics=extra_metrics)


class CampaignWorkload:
    """Replicated 2^3 campaigns, each followed by its analysis.

    An op is one design point; the analysis time counts toward the ops
    of its campaign.  The journal is flushed once per point (no fsync)
    into a temporary directory removed when the run ends.
    """

    name = "campaign"

    def __init__(self, seed: int, n_ops: int, sf: float = CAMPAIGN_SF, *,
                 out_dir: Path):
        self.seed = seed
        self.n_points = len(TwoLevelFactorialDesign(campaign_space()))
        self.n_campaigns = max(1, n_ops // self.n_points)
        self.out_dir = out_dir
        self.spec = CampaignSpec(
            factory="perfbench.workloads:build_campaign_stack",
            params={"sf": sf, "data_seed": seed}, seed=seed,
            name="perfbench")
        self._csvs: List[str] = []
        self._failed_analyses: List[str] = []

    def setup(self) -> None:
        self._csvs = []
        self._failed_analyses = []
        _clear_process_caches()
        campaign_database(float(self.spec.params["sf"]), self.seed)
        # The warm-up campaign also gives the CSV every later one must equal.
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
            self._campaign(Path(tmp) / "warmup.journal")

    def run(self, tracer: Optional[LayerTracer] = None) -> Timed:
        timed = Timed()
        counts = {"attempts": 0.0, "retries": 0.0, "faults_injected": 0.0,
                  "journal_bytes": 0.0}
        original = executor.execute_point
        campaign = ""

        def timed_point(spec, index, trace=False):
            t0 = time.perf_counter()
            if tracer is None:
                outcome = original(spec, index, trace=trace)
            else:
                with tracer.op(f"{campaign}p{index}"):
                    outcome = original(spec, index, trace=trace)
            timed.record(f"point{index}", time.perf_counter() - t0)
            return outcome

        executor.execute_point = timed_point
        try:
            with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp:
                start = time.perf_counter()
                for k in range(self.n_campaigns):
                    campaign = f"c{k}"
                    journal = Path(tmp) / f"{campaign}.journal"
                    sub_start = time.perf_counter()
                    if tracer is None:
                        report = self._campaign(journal)
                    else:
                        with tracer.op(campaign), tracer.window():
                            report = self._campaign(journal)
                    timed.subruns.append((report.n_measured,
                                          time.perf_counter() - sub_start))
                    timed.failed += report.n_failed
                    timed.sim_ms.extend(report.results.column("sim_ms"))
                    counts["faults_injected"] += sum(
                        report.results.column("faults_injected"))
                    counts["attempts"] += report.total_attempts
                    counts["retries"] += report.total_retries
                    counts["journal_bytes"] += journal.stat().st_size
                timed.wall_s = time.perf_counter() - start
        finally:
            executor.execute_point = original
        timed.ops = self.n_campaigns * self.n_points
        timed.counts = counts
        return timed

    def _campaign(self, journal: Path):
        report = executor.run_campaign(self.spec, jobs=1, trace=True,
                                       checkpoint=journal,
                                       on_error="record")
        self._analyze(report)
        self._csvs.append(report.results.to_csv())
        return report

    def _analyze(self, report) -> None:
        """The analysis a researcher runs after each campaign."""
        design = TwoLevelFactorialDesign(campaign_space())
        replicated = []
        pools: Dict[str, List[float]] = {"yes": [], "no": []}
        for point in design.points():
            outcome = report.raw.get(point.index)
            reals = list(outcome.reals) if outcome is not None \
                else [math.nan] * CAMPAIGN_PROTOCOL.repetitions
            replicated.append([r * 1000.0 for r in reals])
            pools[str(point.config["tuned"])].extend(reals)
        try:
            replication.analyze_replicated(design, replicated)
            variation.allocate_variation_replicated(design, replicated)
            speedup.bootstrap_speedup_ci(pools["no"], pools["yes"],
                                         protocol="median", seed=self.seed)
        except ReproError as exc:
            self._failed_analyses.append(f"{type(exc).__name__}: {exc}")

    def check(self) -> Check:
        """Every campaign's CSV must equal the first (warm-up) one's; each
        differing point row is a wrong op."""
        outcome = Check(checked=len(self._csvs))
        reference = self._csvs[0].splitlines()
        for k, csv in enumerate(self._csvs[1:]):
            rows = csv.splitlines()
            differing = sum(a != b for a, b in zip(rows, reference)) \
                + abs(len(rows) - len(reference))
            if differing:
                outcome.wrong["campaign"] = \
                    outcome.wrong.get("campaign", 0) + differing
                outcome.unexpected.append(
                    f"campaign c{k}: {differing} result row(s) differ "
                    "from the first campaign's")
        outcome.unexpected.extend(self._failed_analyses)
        return outcome


WORKLOADS: Dict[str, Callable[..., Any]] = {
    "tpch": TpchWorkload,
    "adhoc": AdhocWorkload,
    "campaign": CampaignWorkload,
}
