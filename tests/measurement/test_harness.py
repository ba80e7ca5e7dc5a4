"""Tests for the measurement harness."""

import pytest

from repro.core import Factor, FactorSpace, FullFactorialDesign, two_level
from repro.errors import ClientDisconnectError, MeasurementError
from repro.measurement import (
    LAST_OF_THREE_HOT,
    RetryPolicy,
    RunProtocol,
    State,
    VirtualClock,
    Workload,
    run_harness,
    workload_from_callable,
)


class SimWorkload(Workload):
    """Cost = base * size factor; cold adds I/O."""

    def __init__(self, clock):
        self.clock = clock
        self.size = 1
        self.warm = False

    def setup(self, config):
        self.size = config["size"]

    def run(self):
        self.clock.advance(cpu_seconds=0.001 * self.size)
        if not self.warm:
            self.clock.advance(io_seconds=0.01)
            self.warm = True

    def make_cold(self):
        self.warm = False


def make_space():
    return FactorSpace([Factor("size", (1, 2, 4))])


class TestRunHarness:
    def test_collects_one_record_per_point(self):
        clock = VirtualClock()
        workload = SimWorkload(clock)
        report = run_harness(FullFactorialDesign(make_space()), workload,
                             LAST_OF_THREE_HOT, clock=clock)
        assert len(report.results) == 3
        assert set(report.results.factor_names) == {"size"}
        assert {"real_ms", "user_ms", "sys_ms"} <= \
            set(report.results.metric_names)

    def test_hot_results_scale_with_size(self):
        clock = VirtualClock()
        workload = SimWorkload(clock)
        report = run_harness(FullFactorialDesign(make_space()), workload,
                             LAST_OF_THREE_HOT, clock=clock)
        ms = dict(report.results.series("size", "real_ms"))
        assert ms[2] == pytest.approx(2 * ms[1])
        assert ms[4] == pytest.approx(4 * ms[1])

    def test_cold_protocol_includes_io(self):
        clock = VirtualClock()
        workload = SimWorkload(clock)
        protocol = RunProtocol(state=State.COLD, repetitions=2, warmups=0)
        report = run_harness(FullFactorialDesign(make_space()), workload,
                             protocol, clock=clock)
        for record in report.results:
            assert record.metrics["sys_ms"] == pytest.approx(10.0)

    def test_extra_metrics(self):
        clock = VirtualClock()
        workload = SimWorkload(clock)
        report = run_harness(
            FullFactorialDesign(make_space()), workload,
            LAST_OF_THREE_HOT, clock=clock,
            extra_metrics=lambda config: {"size_squared":
                                          float(config["size"] ** 2)})
        assert report.results.column("size_squared") == [1.0, 4.0, 16.0]

    def test_extra_metrics_cannot_shadow(self):
        clock = VirtualClock()
        workload = SimWorkload(clock)
        with pytest.raises(MeasurementError):
            run_harness(FullFactorialDesign(make_space()), workload,
                        LAST_OF_THREE_HOT, clock=clock,
                        extra_metrics=lambda config: {"real_ms": 1.0})

    def test_documentation_mentions_design_and_protocol(self):
        clock = VirtualClock()
        workload = SimWorkload(clock)
        report = run_harness(FullFactorialDesign(make_space()), workload,
                             LAST_OF_THREE_HOT, clock=clock)
        text = report.documentation()
        assert "FullFactorialDesign" in text
        assert "hot" in text

    def test_raw_timings_per_point(self):
        clock = VirtualClock()
        workload = SimWorkload(clock)
        report = run_harness(FullFactorialDesign(make_space()), workload,
                             LAST_OF_THREE_HOT, clock=clock)
        assert set(report.raw) == {0, 1, 2}
        assert all(len(outcome.runs) == 3 for outcome in report.raw.values())


class TestSelfAudit:
    def campaign(self, workload, clock):
        return run_harness(FullFactorialDesign(make_space()), workload,
                           LAST_OF_THREE_HOT, clock=clock,
                           retry=RetryPolicy(max_attempts=2),
                           on_error="record")

    def test_complete_campaign_passes_every_check(self):
        clock = VirtualClock()
        report = self.campaign(SimWorkload(clock), clock)
        audit = report.self_audit()
        assert len(audit) == 6
        assert all(ok for __, ok in audit)
        assert report.documentation().endswith(
            "self-audit: 6/6 checks passed")

    def test_recorded_failure_flags_only_coverage(self):
        class DropsSizeTwo(SimWorkload):
            def run(self):
                if self.size == 2:
                    raise ClientDisconnectError("connection dropped")
                super().run()

        clock = VirtualClock()
        report = self.campaign(DropsSizeTwo(clock), clock)
        assert report.n_failed == 1
        assert [label for label, ok in report.self_audit() if not ok] \
            == ["every design point measured"]
        text = report.documentation()
        assert "1 of 3 point(s) failed" in text
        assert text.endswith("self-audit: 5/6 checks passed (flagged: "
                             "every design point measured)")


class TestCallableWorkload:
    def test_basic(self):
        clock = VirtualClock()
        seen = []

        def fn(config):
            seen.append(dict(config))
            clock.advance(cpu_seconds=0.001)

        workload = workload_from_callable(fn)
        space = FactorSpace([two_level("opt", "off", "on")])
        report = run_harness(FullFactorialDesign(space), workload,
                             LAST_OF_THREE_HOT, clock=clock)
        assert len(report.results) == 2
        # 2 points x (1 warmup + 3 measured).
        assert len(seen) == 8

    def test_cold_unsupported_without_hook(self):
        workload = workload_from_callable(lambda config: None)
        assert not workload.supports_cold
        with pytest.raises(MeasurementError):
            workload.make_cold()

    def test_cold_hook_supported(self):
        flushed = []
        workload = workload_from_callable(lambda config: None,
                                          make_cold=lambda: flushed.append(1))
        assert workload.supports_cold
        workload.make_cold()
        assert flushed == [1]
