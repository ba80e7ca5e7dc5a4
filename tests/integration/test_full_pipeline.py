"""Capstone integration test: the whole methodology, end to end.

Design (2^k over MiniDB configuration factors) → measurement harness
under a documented hot protocol → result set → effects + allocation of
variation → artifacts: CSV, gnuplot script, LaTeX table, manifest,
archive fingerprints.  One test class walks the entire path a real study
would take with this library, asserting consistency at every hand-off.
"""

import pytest

from repro.core import (
    FactorSpace,
    TwoLevelFactorialDesign,
    allocate_variation,
    estimate_effects,
    two_level,
)
from repro.db import Client, Engine, EngineConfig, FileSink, TerminalSink
from repro.measurement import LAST_OF_THREE_HOT, ResultSet, Workload
from repro.repeat import (
    ExperimentSuite,
    InstallInfo,
    Properties,
    archive_results,
    load_archive,
    write_manifest,
)
from repro.viz import from_chart, from_result_set, line_chart, lint_chart, Series
from repro.workloads import generate_tpch, tpch_query


class ConfiguredQueryWorkload(Workload):
    """Q6 on an engine rebuilt per design point from the factor levels."""

    def __init__(self, database):
        self.database = database
        self.engine = None

    def setup(self, config):
        self.engine = Engine(self.database, EngineConfig(
            executor=("loop" if config["mode"] == "column" else "tuple"),
            tuned=(config["tuned"] == "yes")))
        self.engine.execute(tpch_query(6))  # establish the hot state

    def run(self):
        self.engine.execute(tpch_query(6))

    def make_cold(self):
        self.engine.make_cold()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    database = generate_tpch(sf=0.003, seed=42)
    space = FactorSpace([two_level("mode", "column", "tuple"),
                         two_level("tuned", "yes", "no")])
    design = TwoLevelFactorialDesign(space)
    workload = ConfiguredQueryWorkload(database)

    # The harness needs one clock; our workload swaps engines per point,
    # so measure with each engine's own clock via a tiny adapter.
    results = ResultSet("study")
    raw_responses = []
    for point in design.points():
        workload.setup(point.config)
        outcome = LAST_OF_THREE_HOT.execute(
            workload.run, make_cold=workload.make_cold,
            clock=workload.engine.clock)
        ms = outcome.picked.real_ms()
        raw_responses.append(ms)
        results.add(point.config, {"real_ms": ms})
    return root, design, results, raw_responses


class TestAnalysis:
    def test_effects_identify_execution_model(self, pipeline):
        __, design, __, responses = pipeline
        model = estimate_effects(design, responses)
        variation = allocate_variation(design, responses)
        assert variation.percent("mode") > 50.0
        assert model.effect("mode") > 0  # tuple mode is slower

    def test_result_set_consistency(self, pipeline):
        __, design, results, responses = pipeline
        assert len(results) == len(responses) == 4
        assert results.column("real_ms") == responses


class TestArtifacts:
    def test_csv_round_trip(self, pipeline):
        root, __, results, __ = pipeline
        path = root / "study.csv"
        results.to_csv(path)
        back = ResultSet.from_csv(path, metric_names=["real_ms"])
        assert back.column("real_ms") == results.column("real_ms")

    def test_latex_table(self, pipeline):
        root, __, results, __ = pipeline
        table = from_result_set(results, caption="Q6 study",
                                label="tab:q6")
        text = table.render()
        assert "mode & tuned" in text and r"\bottomrule" in text

    def test_chart_passes_guidelines_and_exports(self, pipeline):
        root, __, results, __ = pipeline
        column = results.filter(mode="column")
        tuple_ = results.filter(mode="tuple")
        chart = line_chart(
            "Q6 runtime by configuration",
            [Series("column engine", column.column("tuned"),
                    column.column("real_ms"), unit="ms"),
             Series("tuple engine", tuple_.column("tuned"),
                    tuple_.column("real_ms"), unit="ms")],
            "tuned", "real time (ms)")
        assert lint_chart(chart) == ()
        script = from_chart(chart, "q6-study")
        path = script.write(root)
        assert path.exists()

    def test_suite_manifest_archive(self, pipeline):
        root, __, results, __ = pipeline
        suite = ExperimentSuite(root / "pkg", name="q6-study",
                                properties=Properties({"sf": "0.003"}))
        suite.add("study", lambda props: results,
                  description="Q6 across engine configurations",
                  plot_x="mode", plot_y="real_ms")
        run = suite.run("study")
        assert run.csv_path.exists()
        manifest = write_manifest(suite, InstallInfo(
            requirements=["repro"], install_command="pip install -e ."))
        assert "### study" in manifest.read_text()
        record = archive_results(root / "pkg")
        identical, __ = record.matches(load_archive(root / "pkg"))
        assert identical


class TestClientProfileIntegration:
    def test_four_phase_profile(self):
        engine = Engine(generate_tpch(sf=0.003, seed=42))
        client = Client(engine, TerminalSink())
        report = client.profile(tpch_query(16))
        assert set(report.phase_ms) == {"parse", "optimize", "execute",
                                        "print"}
        assert report.phase_ms["print"] > 0
        assert "Print" in report.format()

    def test_terminal_print_phase_dominates_file(self):
        db = generate_tpch(sf=0.003, seed=42)
        term = Client(Engine(db), TerminalSink()).profile(tpch_query(16))
        file_ = Client(Engine(db), FileSink()).profile(tpch_query(16))
        assert term.phase_ms["print"] > file_.phase_ms["print"]
