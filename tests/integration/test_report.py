"""Tests for the one-command report regeneration (slide 234)."""

import contextlib
import io
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.experiments import EXPERIMENTS, Experiment
from repro.experiments import report as report_cli
from repro.experiments.report import main


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One small regeneration through the CLI, read by every test."""
    out = tmp_path_factory.mktemp("report")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main([str(out), "-Dsf=0.003"])
    return out, status, stdout.getvalue()


def _sections(out):
    """(id, body) of every section of REPORT.md, in order."""
    text = (out / "REPORT.md").read_text(encoding="utf-8")
    return re.findall(r"^## (E\d\d) — .*?\n\n```\n(.*?)\n```$", text,
                      flags=re.M | re.S)


class TestRegenerate:
    def test_all_experiments_present(self, report):
        out, __, __ = report
        ids = [experiment_id for experiment_id, __ in _sections(out)]
        assert ids == [e.id for e in EXPERIMENTS]
        assert ids == [f"E{i:02d}" for i in range(1, 29)]

    def test_report_file_written(self, report):
        out, __, __ = report
        text = (out / "REPORT.md").read_text(encoding="utf-8")
        assert text.startswith("# Measured reproduction report")
        assert "scale factor 0.003" in text

    def test_gnuplot_artifacts_dropped(self, report):
        out, __, __ = report
        assert list((out / "E15").rglob("scaling.gnu"))

    def test_trace_artifacts_dropped(self, report):
        out, __, __ = report
        for name in ("trace.jsonl", "trace.chrome.json",
                     "flamegraph.txt"):
            assert (out / "E22" / name).stat().st_size > 0, name

    def test_json_artifacts_dropped(self, report):
        out, __, __ = report
        for experiment_id, names in (
                ("E24", ("e24_grid.json", "e24_curves.json")),
                ("E25", ("e25_qerror_scatter.json", "e25_summary.json")),
                ("E26", ("e26_feedback.json", "e26_gate_demo.json")),
                ("E27", ("e27_cross_system.json",))):
            for name in names:
                assert (out / experiment_id / name).exists(), name

    def test_bodies_nonempty(self, report):
        out, __, __ = report
        assert all(len(body) > 40 for __, body in _sections(out))


class TestMain:
    def test_cli(self, report):
        __, status, stdout = report
        assert status == 0
        assert "E28" in stdout and "REPORT.md" in stdout
        assert "(28 experiments," in stdout

    def test_usage_error(self, capsys):
        assert main(["a", "b"]) == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("sf", ["0", "-1", "abc"])
    def test_bad_scale_factor_is_a_usage_error(self, sf, tmp_path,
                                               capsys):
        out = tmp_path / "r"
        assert main([str(out), f"-Dsf={sf}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out.exists()


@pytest.fixture
def calls(monkeypatch):
    """Swap in a registry of three trivial entries; E02 always fails.

    Returns the log of ``(id, sf)`` runs, in the order they happened.
    """
    log = []

    def entry(experiment_id):
        def run(sf, outdir):
            log.append((experiment_id, sf))
            if experiment_id == "E02":
                raise MeasurementError("the disk hiccuped")
            return SimpleNamespace(
                format=lambda: f"{experiment_id} ran at sf={sf}")
        return Experiment(experiment_id, f"trivial {experiment_id}", run)

    monkeypatch.setattr(report_cli, "EXPERIMENTS",
                        tuple(entry(i) for i in ("E01", "E02", "E03")))
    return log


def _ids(out):
    return [experiment_id for experiment_id, __ in _sections(out)]


class TestSubsets:
    def test_runs_all_by_default(self, calls, tmp_path):
        out = tmp_path / "r"
        assert main([str(out)]) == 1
        assert [i for i, __ in calls] == ["E01", "E02", "E03"]
        assert _ids(out) == ["E01", "E02", "E03"]

    def test_out_defaults_to_reproduction_report(self, calls, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["-Dsf=0.5"]) == 1
        assert _ids(tmp_path / "reproduction_report") == \
            ["E01", "E02", "E03"]

    def test_runs_single_experiment(self, calls, tmp_path, capsys):
        out = tmp_path / "r"
        assert main([str(out), "E03"]) == 0
        assert calls == [("E03", 0.01)]
        assert _ids(out) == ["E03"]
        stdout = capsys.readouterr().out
        assert "E03: trivial E03" in stdout and "E01:" not in stdout

    def test_subset_runs_once_each_in_registry_order(self, calls,
                                                     tmp_path):
        out = tmp_path / "r"
        assert main([str(out), "E03", "E01", "E03"]) == 0
        assert [i for i, __ in calls] == ["E01", "E03"]
        assert _ids(out) == ["E01", "E03"]
        text = (out / "REPORT.md").read_text(encoding="utf-8")
        assert "experiments E01 E03;" in text

    def test_scale_factor_reaches_the_entries(self, calls, tmp_path):
        out = tmp_path / "r"
        assert main([str(out), "E01", "-Dsf=0.5"]) == 0
        assert calls == [("E01", 0.5)]
        assert dict(_sections(out))["E01"] == "E01 ran at sf=0.5"

    def test_header_records_the_environment(self, calls, tmp_path):
        out = tmp_path / "r"
        assert main([str(out), "E01", "-Dsf=0.5"]) == 0
        header = (out / "REPORT.md").read_text(
            encoding="utf-8").split("## E01")[0]
        assert "scale factor 0.5; experiments E01;" in header
        assert re.search(rf"^numpy +{re.escape(np.__version__)}$",
                         header, flags=re.M)
        assert re.search(r"^python +3\.", header, flags=re.M)


class TestFailures:
    def test_failure_is_a_section_not_a_traceback(self, calls, tmp_path,
                                                  capsys):
        out = tmp_path / "r"
        assert main([str(out)]) == 1
        err = capsys.readouterr().err
        line = "E02: FAILED (MeasurementError: the disk hiccuped)"
        assert line in err
        assert "Traceback" not in err
        assert dict(_sections(out))["E02"] == line

    def test_goes_on_after_a_failure(self, calls, tmp_path, capsys):
        out = tmp_path / "r"
        assert main([str(out)]) == 1
        assert [i for i, __ in calls] == ["E01", "E02", "E03"]
        assert dict(_sections(out))["E03"] == "E03 ran at sf=0.01"
        err = capsys.readouterr().err
        assert "experiment summary" in err
        assert re.search(r"^  E01 +ok$", err, flags=re.M)
        assert re.search(r"^  E02 +FAILED  MeasurementError", err,
                         flags=re.M)
        assert re.search(r"^  E03 +ok$", err, flags=re.M)
        assert "2 passed, 1 failed" in err

    def test_single_failing_experiment_no_summary(self, calls, tmp_path,
                                                  capsys):
        out = tmp_path / "r"
        assert main([str(out), "E02"]) == 1
        err = capsys.readouterr().err
        assert "E02: FAILED" in err
        assert "experiment summary" not in err
        assert _ids(out) == ["E02"]

    def test_other_exceptions_propagate(self, monkeypatch, tmp_path):
        def run(sf, outdir):
            raise ValueError("a bug, not a measurement failure")

        monkeypatch.setattr(report_cli, "EXPERIMENTS",
                            (Experiment("E01", "buggy", run),))
        with pytest.raises(ValueError, match="a bug"):
            main([str(tmp_path / "r")])


class TestRefusals:
    """An argument the report would ignore exits 2 before anything runs."""

    def check_refused(self, argv, out, calls, capsys):
        assert main(argv) == 2
        assert calls == []
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "usage:" in err
        return err

    def test_unknown_experiment(self, calls, tmp_path, capsys):
        out = tmp_path / "r"
        err = self.check_refused([str(out), "E01", "E99"], out, calls,
                                 capsys)
        assert "'E99'" in err and "E01 E02 E03" in err

    def test_out_that_names_an_experiment(self, calls, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        err = self.check_refused(["E02"], tmp_path / "E02", calls, capsys)
        assert "'E02' names an experiment" in err
        assert not (tmp_path / "reproduction_report").exists()

    def test_unknown_property(self, calls, tmp_path, capsys):
        out = tmp_path / "r"
        err = self.check_refused([str(out), "-Dseed=3", "-Dsf=0.003"],
                                 out, calls, capsys)
        assert "'seed'" in err and "sf" in err

    @pytest.mark.parametrize("option", ["--trace", "--jobs=4", "--help"])
    def test_unknown_option(self, option, calls, tmp_path, capsys):
        out = tmp_path / "r"
        err = self.check_refused([str(out), option], out, calls, capsys)
        assert f"unknown option {option!r}" in err
