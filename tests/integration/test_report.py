"""Tests for the one-command report regeneration (slide 234)."""

import contextlib
import io
import re

import pytest

from repro.experiments import EXPERIMENTS
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
