"""Experiment-suite documentation generation.

Slide 216 lists what repeatability instructions must specify: what the
installation requires and how to install; and per experiment, any extra
installation, the script to run, where to look for the graph, and how
long it takes.  :func:`write_manifest` renders exactly that from a
:class:`~repro.repeat.suite.ExperimentSuite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import SuiteError
from repro.repeat.suite import ExperimentSuite


@dataclass(frozen=True)
class InstallInfo:
    """The suite-wide installation section of the manifest.

    ``run_command`` is the command that runs the study, such as
    ``python examples/repeatable_package.py``; every experiment's run
    line quotes it verbatim.
    """

    requirements: Sequence[str]
    install_command: str
    data_preparation: str = ""
    run_command: str = ""

    def __post_init__(self):
        if not self.install_command:
            raise SuiteError("an install command is required")


def render_manifest(suite: ExperimentSuite, install: InstallInfo) -> str:
    """Render the manifest markdown text."""
    lines: List[str] = [
        f"# Repeatability manifest: {suite.name}",
        "",
        "## Installation",
        "",
        "Requirements:",
    ]
    for requirement in install.requirements:
        lines.append(f"- {requirement}")
    lines += ["", "Install:", "", f"    {install.install_command}", ""]
    if install.data_preparation:
        lines += ["Data preparation:", "",
                  f"    {install.data_preparation}", ""]
    lines += [
        "## Experiments",
        "",
        f"Total expected duration: "
        f"{suite.total_expected_minutes():.0f} minute(s).",
        "",
    ]
    command = install.run_command or "<the command that runs the study>"
    for name in suite.experiment_names:
        experiment = suite.experiment(name)
        lines += [
            f"### {name}",
            "",
            experiment.description or "(no description)",
            "",
            f"- run: `{command}`",
            f"- results: `res/{name}.csv`",
        ]
        if experiment.plot_x and experiment.plot_y:
            lines.append(
                f"- graph: `graphs/{name}.gnu` "
                f"(run `gnuplot graphs/{name}.gnu` to produce "
                f"`graphs/{name}.eps`)")
        lines += [
            f"- expected duration: ~{experiment.expected_minutes:g} "
            "minute(s)",
            "",
        ]
    return "\n".join(lines)


def write_manifest(suite: ExperimentSuite, install: InstallInfo,
                   path: Optional[Path] = None) -> Path:
    """Write the manifest into the suite root (default MANIFEST.md)."""
    suite.scaffold()
    target = path if path is not None else suite.root / "MANIFEST.md"
    target.write_text(render_manifest(suite, install), encoding="utf-8")
    return target
