"""The instrumentation contract: every layer contributes spans/events.

These tests pin the span taxonomy DESIGN.md documents: engine phases
and operators, buffer-pool scans, disk reads, client print, protocol
runs, retry/backoff and injected faults.
"""

import pytest

from repro.db import (
    Client,
    Database,
    DataType,
    Engine,
    FileSink,
    Table,
)
from repro.faults import FaultPlan
from repro.measurement.clocks import VirtualClock
from repro.measurement.protocol import RunProtocol, State
from repro.measurement.retry import RetryPolicy, execute_with_retry
from repro.obs import Tracer


def make_engine(clock=None, **config_kwargs):
    db = Database()
    db.create_table(Table.from_columns(
        "t", [("a", DataType.INT64)], {"a": list(range(200))}))
    if config_kwargs:
        from repro.db import EngineConfig
        return Engine(db, EngineConfig(**config_kwargs), clock=clock)
    return Engine(db, clock=clock)


def traced(fn, clock):
    tracer = Tracer(clock=clock)
    with tracer.activate():
        fn()
    return tracer.trace()


class TestEngineSpans:
    def test_phases_and_operators_nest(self):
        engine = make_engine()
        trace = traced(
            lambda: engine.execute("SELECT a FROM t WHERE a < 10"),
            engine.clock)
        names = {span.name for span in trace.spans}
        assert {"engine.query", "engine.parse", "engine.optimize",
                "engine.execute", "engine.materialize"} <= names
        query = trace.find("engine.query")[0]
        phases = [s.name for s in trace.children(query)]
        assert phases == ["engine.parse", "engine.optimize",
                          "engine.execute", "engine.materialize"]
        execute = trace.find("engine.execute")[0]
        operators = trace.category_spans("operator")
        assert operators, "operators must produce spans"
        roots = [op for op in operators
                 if trace.parent(op).name == "engine.execute"]
        assert len(roots) == 1  # plan root hangs off the execute phase
        assert all("kind" in op.attributes for op in operators)
        assert all(op.attributes["rows"] >= 0 for op in operators)

    def test_execute_span_reports_buffer_traffic(self):
        engine = make_engine()
        trace = traced(lambda: engine.execute("SELECT a FROM t"),
                       engine.clock)
        execute = trace.find("engine.execute")[0]
        assert execute.attributes["buffer_misses"] > 0

    def test_untraced_execution_still_works(self):
        engine = make_engine()
        result = engine.execute("SELECT a FROM t")
        assert result.n_rows == 200


class TestBufferAndDisk:
    def test_buffer_span_counts_hits_misses(self):
        engine = make_engine()
        engine.execute("SELECT a FROM t")  # warm
        trace = traced(lambda: engine.execute("SELECT a FROM t"),
                       engine.clock)
        scan = trace.find("buffer.read_table")[0]
        assert scan.attributes["table"] == "t"
        assert scan.attributes["hits"] == scan.attributes["pages"]
        assert scan.attributes["misses"] == 0

    def test_disk_reads_emit_events(self):
        engine = make_engine()
        trace = traced(lambda: engine.execute("SELECT a FROM t"),
                       engine.clock)
        reads = trace.events("disk.read")
        assert reads, "cold scan must hit the disk model"
        for event in reads:
            assert event.attributes["pages"] > 0
            assert "seek_ms" in event.attributes
            assert "transfer_ms" in event.attributes


class TestClientSpans:
    def test_client_run_wraps_engine_and_print(self):
        engine = make_engine()
        client = Client(engine, FileSink())
        trace = traced(lambda: client.run("SELECT a FROM t"),
                       engine.clock)
        run_span = trace.find("client.run")[0]
        child_names = {s.name for s in trace.children(run_span)}
        assert "engine.query" in child_names
        assert "client.print" in child_names
        print_span = trace.find("client.print")[0]
        assert print_span.attributes["bytes"] > 0
        assert print_span.attributes["sink"] == "file"


class TestProtocolSpans:
    def test_warmups_and_runs_are_separate_spans(self):
        clock = VirtualClock()
        engine = make_engine(clock=clock)
        protocol = RunProtocol(state=State.HOT, repetitions=2, warmups=1)
        trace = traced(
            lambda: protocol.execute(
                lambda: engine.execute("SELECT a FROM t"), clock=clock),
            clock)
        execute = trace.find("protocol.execute")[0]
        assert execute.attributes["state"] == "hot"
        assert len(trace.find("protocol.warmup[0]")) == 1
        runs = [s for s in trace.spans
                if s.name.startswith("protocol.run[")]
        assert len(runs) == 2
        assert all(s.attributes["real_ms"] >= 0 for s in runs)


class TestFaultAndRetryEvents:
    def test_injected_fault_and_backoff_on_timeline(self):
        clock = VirtualClock()
        injector = FaultPlan.scheduled(
            "disk.read", operations=[1], seed=1).injector()
        tracer = Tracer(clock=clock)

        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                injector.tick("disk.read")
            return "ok"

        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.5)
        with tracer.activate():
            with tracer.span("campaign"):
                result, attempts = execute_with_retry(
                    flaky, policy, clock=clock)
        assert (result, attempts) == ("ok", 2)
        trace = tracer.trace()
        fault = trace.events("fault.injected")[0]
        assert fault.attributes["site"] == "disk.read"
        assert fault.attributes["error"] == "TransientDiskError"
        failed = trace.events("retry.attempt_failed")[0]
        assert failed.attributes["attempt"] == 1
        backoff = trace.events("retry.backoff")[0]
        assert backoff.attributes["seconds"] == pytest.approx(0.5)
        # Backoff is charged to the simulated clock.
        assert clock.sample().real >= 0.5
