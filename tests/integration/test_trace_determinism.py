"""Tracing acceptance: deterministic, cross-layer, exportable.

The observability counterpart of ``test_fault_resume.py``: the same
seeded fault-injected 2^3 campaign is traced twice from two completely
fresh stacks (new clock, injector, workload, tracer), and the exported
JSONL span logs must be *byte identical* — simulated timestamps,
sequential span ids and sorted JSON keys leave no room for drift.  The
trace must also cover every instrumented layer and carry the campaign's
fault/retry story as events.
"""

import json

import pytest

from repro.core import TwoLevelFactorialDesign
from repro.experiments.e21_fault_tolerance import (
    FaultyQueryWorkload,
    make_space,
)
from repro.experiments.e22_trace_contrast import run_e22
from repro.faults import FaultPlan
from repro.measurement import (
    LAST_OF_THREE_HOT,
    RetryPolicy,
    VirtualClock,
    run_harness,
)
from repro.obs import MetricsRegistry, Tracer, to_chrome_trace, to_jsonl
from repro.workloads import generate_tpch, tpch_query
from tests.integration import sim_digest

SF = 0.002
SEED = 42
FAULT_P = 0.2


@pytest.fixture(scope="module")
def database():
    return generate_tpch(sf=SF, seed=SEED)


def traced_campaign(database, registry=None):
    """One 'process lifetime': fresh clock, injector, workload, tracer."""
    clock = VirtualClock()
    injector = FaultPlan.uniform(FAULT_P, seed=SEED,
                                 sites=("client.run",)).injector()
    workload = FaultyQueryWorkload(database, tpch_query(1), clock,
                                   injector)
    tracer = Tracer(clock=clock, registry=registry)
    return run_harness(
        TwoLevelFactorialDesign(make_space()), workload,
        LAST_OF_THREE_HOT, clock=clock,
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.05),
        on_error="record", name="trace", tracer=tracer)


@pytest.fixture(scope="module")
def report(database):
    return traced_campaign(database)


class TestDeterminism:
    def test_same_seed_jsonl_is_byte_identical(self, database, report):
        again = traced_campaign(database)
        assert to_jsonl(report.trace) == to_jsonl(again.trace)

    def test_same_seed_chrome_trace_is_identical(self, database, report):
        again = traced_campaign(database)
        a = json.dumps(to_chrome_trace(report.trace), sort_keys=True)
        b = json.dumps(to_chrome_trace(again.trace), sort_keys=True)
        assert a == b

    def test_same_seed_metrics_snapshot_identical(self, database):
        first, second = MetricsRegistry(), MetricsRegistry()
        traced_campaign(database, registry=first)
        traced_campaign(database, registry=second)
        assert first.snapshot() == second.snapshot()


class TestCoverage:
    def test_every_layer_contributes_spans(self, report):
        categories = set(report.trace.categories())
        assert {"harness", "protocol", "client", "engine", "operator",
                "buffer"} <= categories

    def test_harness_nests_protocol_nests_engine(self, report):
        trace = report.trace
        campaign = trace.find("harness.campaign")[0]
        assert campaign.parent_id is None
        point = trace.find("harness.point[0]")[0]
        assert trace.parent(point) is campaign
        protocol = [s for s in trace.children(point)
                    if s.name == "protocol.execute"]
        assert protocol
        engine_query = trace.find("engine.query")[0]
        depth_chain = []
        walker = engine_query
        while walker is not None:
            depth_chain.append(walker.name)
            walker = trace.parent(walker)
        assert depth_chain[-1] == "harness.campaign"
        assert any(n.startswith("protocol.") for n in depth_chain)

    def test_fault_and_retry_events_on_timeline(self, report):
        trace = report.trace
        faults = trace.events("fault.injected")
        backoffs = trace.events("retry.backoff")
        assert faults and backoffs
        assert all(e.attributes["site"] == "client.run" for e in faults)
        # Event timestamps live on the same simulated timeline.
        t_max = max(span.end_s for span in trace.spans)
        assert all(0.0 <= e.t_s <= t_max for e in faults + backoffs)

    def test_trace_summary_reaches_documentation(self, report):
        assert "trace:" in report.documentation()
        assert f"{len(report.trace)} spans" in report.documentation()

    def test_disk_events_present(self, report):
        assert report.trace.events("disk.read")


class TestE22:
    @pytest.fixture(scope="class")
    def e22(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("e22")
        return run_e22(sf=SF, seed=SEED, trace_dir=str(trace_dir)), \
            trace_dir

    def test_e22_writes_all_three_artifacts(self, e22):
        result, trace_dir = e22
        names = sorted(p.name for p in trace_dir.iterdir())
        assert names == ["flamegraph.txt", "trace.chrome.json",
                         "trace.jsonl"]
        jsonl = (trace_dir / "trace.jsonl").read_text(encoding="utf-8")
        assert jsonl == to_jsonl(result.campaign_trace)
        chrome = json.loads(
            (trace_dir / "trace.chrome.json").read_text(encoding="utf-8"))
        assert any(e.get("ph") == "X" for e in chrome["traceEvents"])
        flame = (trace_dir / "flamegraph.txt").read_text(encoding="utf-8")
        assert "flamegraph:" in flame
        assert result.slowdown > 1.0
        assert result.n_fault_events > 0
        text = result.format()
        assert "two very different traces" in text

    def test_contrast_shapes_differ(self, e22):
        result, __ = e22
        tuned = result.contrast("tuned")
        untuned = result.contrast("untuned")
        assert tuned.buffer_misses == 0  # hot large pool: all hits
        assert untuned.buffer_misses > 0  # 8-page pool still thrashes
        assert untuned.total_ms > tuned.total_ms

    def test_simulated_numbers_pinned(self, e22):
        """Totals, slowdown and its CI, buffer and I/O counts.  Span
        counts and flamegraphs are not pinned: they follow the kernel
        spans the executor emits, which take no simulated time."""
        result, __ = e22
        ci = result.slowdown_ci
        numbers = ([(run.label, run.total_ms, run.buffer_hits,
                     run.buffer_misses, run.io_pages)
                    for run in result.contrasts],
                   result.slowdown, (ci.mean, ci.low, ci.high),
                   result.slowdown_min)
        assert sim_digest(numbers) == (
            "aed2dc9859907b608eedb91ed420b9a0"
            "e3578cb4ccd44b2ab16b610ae591d2ca")
