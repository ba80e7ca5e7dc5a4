"""Tests for the repeatability harness: properties, suites, manifests."""

import pytest

from repro.errors import ConfigError, SuiteError
from repro.measurement import ResultSet
from repro.repeat import (
    Experiment,
    ExperimentSuite,
    InstallInfo,
    Properties,
    SUITE_DIRECTORIES,
    render_manifest,
    write_manifest,
)


class TestProperties:
    def test_defaults_and_override(self):
        props = Properties({"dataDir": "./data", "doStore": "true"})
        assert props.get("dataDir") == "./data"
        props.set("dataDir", "./test")
        assert props.get("dataDir") == "./test"

    def test_missing_key_meaningful_error(self):
        props = Properties({"a": "1"})
        with pytest.raises(ConfigError, match="known keys"):
            props.get("missing")

    def test_default_argument(self):
        assert Properties().get("x", "fallback") == "fallback"

    def test_typed_accessors(self):
        props = Properties({"n": "5", "f": "2.5", "flag": "yes"})
        assert props.get_int("n") == 5
        assert props.get_float("f") == 2.5
        assert props.get_bool("flag") is True
        assert props.get_bool("other", default=False) is False
        assert props.get_path("p", default="/tmp").name == "tmp"

    def test_typed_errors(self):
        props = Properties({"n": "abc"})
        with pytest.raises(ConfigError):
            props.get_int("n")
        with pytest.raises(ConfigError):
            props.get_float("n")
        with pytest.raises(ConfigError):
            props.get_bool("n")

    def test_bad_keys_rejected(self):
        with pytest.raises(ConfigError):
            Properties({"bad key": "1"})
        with pytest.raises(ConfigError):
            Properties().set("a=b", "1")

    def test_cli_overrides(self):
        props = Properties({"dataDir": "./data"})
        rest = props.apply_cli_overrides(
            ["-DdataDir=./test", "-DdoStore=false", "positional"])
        assert props.get("dataDir") == "./test"
        assert props.get("doStore") == "false"
        assert rest == ["positional"]

    def test_bad_cli_override(self):
        with pytest.raises(ConfigError):
            Properties().apply_cli_overrides(["-Dnovalue"])

    def test_file_round_trip(self, tmp_path):
        props = Properties({"a": "1", "b": "x y"})
        path = tmp_path / "exp.properties"
        props.store_file(path, comment="test config")
        fresh = Properties()
        count = fresh.load_file(path)
        assert count == 2
        assert fresh.as_dict() == props.as_dict()

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            Properties().load_file(tmp_path / "nope.properties")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.properties"
        path.write_text("just a line without equals\n")
        with pytest.raises(ConfigError, match="key=value"):
            Properties().load_file(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.properties"
        path.write_text("# comment\n\na=1\n")
        props = Properties()
        assert props.load_file(path) == 1


def make_experiment_fn(points=3):
    def fn(properties):
        rs = ResultSet()
        scale = properties.get_int("scale", 1)
        for i in range(1, points + 1):
            rs.add({"sf": i}, {"ms": float(i * 100 * scale)})
        return rs
    return fn


class TestExperimentSuite:
    def test_scaffold_creates_layout(self, tmp_path):
        suite = ExperimentSuite(tmp_path / "pkg")
        suite.scaffold()
        for sub in SUITE_DIRECTORIES:
            assert (tmp_path / "pkg" / sub).is_dir()

    def test_run_writes_csv_and_plot(self, tmp_path):
        suite = ExperimentSuite(tmp_path)
        suite.add("scaling", make_experiment_fn(),
                  description="Execution time for various scale factors",
                  plot_x="sf", plot_y="ms")
        run = suite.run("scaling")
        assert run.csv_path.exists()
        assert "sf,ms" in run.csv_path.read_text()
        assert run.gnuplot_path.exists()
        text = run.gnuplot_path.read_text()
        assert "set output" in text and "scaling.eps" in text
        assert (tmp_path / "graphs" / "scaling.csv").exists()

    def test_run_all(self, tmp_path):
        suite = ExperimentSuite(tmp_path)
        suite.add("a", make_experiment_fn())
        suite.add("b", make_experiment_fn())
        runs = suite.run_all()
        assert [r.experiment.name for r in runs] == ["a", "b"]

    def test_properties_reach_experiments(self, tmp_path):
        suite = ExperimentSuite(tmp_path,
                                properties=Properties({"scale": "2"}))
        suite.add("scaled", make_experiment_fn())
        run = suite.run("scaled")
        assert run.results.column("ms")[0] == 200.0

    def test_duplicate_registration_rejected(self, tmp_path):
        suite = ExperimentSuite(tmp_path)
        suite.add("a", make_experiment_fn())
        with pytest.raises(SuiteError):
            suite.add("a", make_experiment_fn())

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(SuiteError, match="registered"):
            ExperimentSuite(tmp_path).run("ghost")

    def test_bad_return_type(self, tmp_path):
        suite = ExperimentSuite(tmp_path)
        suite.add("broken", lambda props: [1, 2, 3])
        with pytest.raises(SuiteError, match="ResultSet"):
            suite.run("broken")

    def test_experiment_validation(self):
        with pytest.raises(SuiteError):
            Experiment(name="bad name!", fn=make_experiment_fn())
        with pytest.raises(SuiteError):
            Experiment(name="ok", fn=make_experiment_fn(),
                       expected_minutes=0)

    def test_total_expected_minutes(self, tmp_path):
        suite = ExperimentSuite(tmp_path)
        suite.add("a", make_experiment_fn(), expected_minutes=2)
        suite.add("b", make_experiment_fn(), expected_minutes=3)
        assert suite.total_expected_minutes() == 5


class TestManifest:
    def make_suite(self, tmp_path):
        suite = ExperimentSuite(tmp_path, name="demo")
        suite.add("scaling", make_experiment_fn(),
                  description="Scale-up study", expected_minutes=2,
                  plot_x="sf", plot_y="ms")
        return suite

    def test_render_contains_required_sections(self, tmp_path):
        suite = self.make_suite(tmp_path)
        install = InstallInfo(requirements=["python >= 3.9", "numpy"],
                              install_command="pip install -e .",
                              data_preparation="python examples/gen.py",
                              run_command="python study.py")
        text = render_manifest(suite, install)
        assert "## Installation" in text
        assert "pip install -e ." in text
        assert "python examples/gen.py" in text
        assert "- run: `python study.py`" in text
        assert "### scaling" in text
        assert "res/scaling.csv" in text
        assert "graphs/scaling.gnu" in text
        assert "~2 minute(s)" in text

    def test_write_manifest(self, tmp_path):
        suite = self.make_suite(tmp_path)
        install = InstallInfo(requirements=["numpy"],
                              install_command="pip install -e .")
        path = write_manifest(suite, install)
        assert path.read_text().startswith("# Repeatability manifest")

    def test_install_requires_command(self):
        with pytest.raises(SuiteError):
            InstallInfo(requirements=[], install_command="")
