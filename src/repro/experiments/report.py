"""Regenerate every paper experiment into one measured report.

The tutorial's gold standard (slide 234): *one command* runs all
experiments and re-builds all tables and graphs.  This module is that
command for the reproduction itself::

    python -m repro.experiments.report [output-dir] [-Dsf=0.01]

It runs every experiment in :data:`repro.experiments.EXPERIMENTS`
(E01-E28), writes ``REPORT.md`` (every experiment's formatted
table/series plus wall-clock) and puts each experiment's files under
``<output-dir>/<id>/``: E15's gnuplot suite, E22's traces and the JSON
artifacts of E24-E27.  At the default scale factor the report prints
the numbers EXPERIMENTS.md quotes; a smaller one makes a quick smoke
pass.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import ConfigError
from repro.experiments import EXPERIMENTS, REFERENCE_SF
from repro.repeat.properties import Properties


@dataclass(frozen=True)
class SectionResult:
    """One regenerated experiment."""

    experiment: str
    title: str
    body: str
    wall_seconds: float


def regenerate(output_dir: "str | Path", sf: float = REFERENCE_SF
               ) -> List[SectionResult]:
    """Run all experiments; write REPORT.md; return the sections."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    sections: List[SectionResult] = []
    for experiment in EXPERIMENTS:
        started = time.perf_counter()
        result = experiment.run(sf, output_dir / experiment.id)
        wall = time.perf_counter() - started
        sections.append(SectionResult(
            experiment=experiment.id, title=experiment.title,
            body=result.format(), wall_seconds=wall))
    lines = [
        "# Measured reproduction report",
        "",
        f"scale factor {sf}; every table below was regenerated by "
        "`python -m repro.experiments.report`.",
        "",
    ]
    for section in sections:
        lines += [
            f"## {section.experiment} — {section.title} "
            f"({section.wall_seconds:.2f}s wall)",
            "",
            "```",
            section.body,
            "```",
            "",
        ]
    (output_dir / "REPORT.md").write_text("\n".join(lines),
                                          encoding="utf-8")
    return sections


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    properties = Properties({"sf": str(REFERENCE_SF)})
    try:
        rest = properties.apply_cli_overrides(argv)
        sf = properties.get_float("sf")
        if not (math.isfinite(sf) and sf > 0):
            raise ConfigError(f"sf must be a positive number, got {sf}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(rest) > 1 or (rest and rest[0].startswith("-")):
        print("usage: python -m repro.experiments.report "
              f"[output-dir] [-Dsf={REFERENCE_SF}]", file=sys.stderr)
        return 2
    output_dir = Path(rest[0]) if rest else Path("reproduction_report")
    sections = regenerate(output_dir, sf=sf)
    total = sum(s.wall_seconds for s in sections)
    for section in sections:
        print(f"{section.experiment}: {section.title} "
              f"({section.wall_seconds:.2f}s)")
    print(f"report: {output_dir / 'REPORT.md'} "
          f"({len(sections)} experiments, {total:.1f}s total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
