"""Regenerate the paper experiments into one measured report.

The tutorial's gold standard (slide 234): *one command* runs all
experiments and re-builds all tables and graphs.  This module is that
command for the reproduction itself::

    python -m repro.experiments.report [OUT [ID ...]] [-Dsf=0.01]

It runs the entries of :data:`repro.experiments.EXPERIMENTS` named by
the ids, or all of them (E01-E28) when none is named, in registry
order.  It writes ``OUT/REPORT.md`` (default ``reproduction_report``):
a header with the ids, the scale factor and the software environment
(slides 155-156), then every experiment's formatted table or series
plus its wall-clock.  Each experiment's files go under ``OUT/<id>/``:
E15's gnuplot suite, E22's traces and the JSON artifacts of E24-E27.
At the default scale factor the report prints the numbers
EXPERIMENTS.md quotes; a smaller one makes a quick smoke pass.

An argument the command cannot honour (an unknown id, an OUT that is
an experiment id, a ``-D`` key other than ``sf``, a bad ``sf`` or any
other ``-`` option) exits 2 before anything runs.  An experiment that
raises a :class:`~repro.errors.ReproError` does not stop the run: its
section reads ``E24: FAILED (ServeError: ...)``, the same line goes to
stderr, and the exit code is 1, with a pass/fail summary when more than
one experiment ran.  Any other exception propagates as a traceback.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.errors import ConfigError, ReproError
from repro.experiments import EXPERIMENTS, REFERENCE_SF, Experiment
from repro.repeat.archive import capture_environment, format_environment
from repro.repeat.properties import Properties

USAGE = ("usage: python -m repro.experiments.report "
         f"[OUT [ID ...]] [-Dsf={REFERENCE_SF}]")


@dataclass(frozen=True)
class SectionResult:
    """One regenerated experiment; ``error`` is set when it failed."""

    experiment: str
    title: str
    body: str
    wall_seconds: float
    error: Optional[str] = None


def regenerate(output_dir: "str | Path", experiments: Sequence[Experiment],
               sf: float = REFERENCE_SF) -> List[SectionResult]:
    """Run *experiments*; write REPORT.md; return the sections."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    sections: List[SectionResult] = []
    for experiment in experiments:
        started = time.perf_counter()
        error = None
        try:
            body = experiment.run(sf, output_dir / experiment.id).format()
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
            body = f"{experiment.id}: FAILED ({error})"
        wall = time.perf_counter() - started
        sections.append(SectionResult(
            experiment=experiment.id, title=experiment.title,
            body=body, wall_seconds=wall, error=error))
    lines = [
        "# Measured reproduction report",
        "",
        f"scale factor {sf}; experiments "
        f"{' '.join(e.id for e in experiments)}; every table below was "
        "regenerated by `python -m repro.experiments.report`.",
        "",
        "```",
        format_environment(capture_environment()),
        "```",
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


def _refusal(properties: Properties, rest: Sequence[str]) -> Optional[str]:
    """Why the arguments cannot be honoured, or None if they can."""
    ids = [experiment.id for experiment in EXPERIMENTS]
    keys = [key for key in properties.keys() if key != "sf"]
    options = [arg for arg in rest if arg.startswith("-")]
    unknown = [arg for arg in rest[1:] if arg not in ids]
    if keys:
        return f"unknown property {keys[0]!r}; the report reads only sf"
    if options:
        return f"unknown option {options[0]!r}"
    if rest and rest[0] in ids:
        return (f"OUT {rest[0]!r} names an experiment; give the output "
                f"directory first, e.g. reproduction_report {rest[0]}")
    if unknown:
        return (f"unknown experiment {unknown[0]!r}; choose from "
                + " ".join(ids))
    return None


def _print_summary(sections: Sequence[SectionResult]) -> None:
    """Per-experiment pass/fail table on stderr."""
    print("-- experiment summary " + "-" * 32, file=sys.stderr)
    for section in sections:
        verdict = "ok" if section.error is None \
            else f"FAILED  {section.error}"
        print(f"  {section.experiment:<5} {verdict}", file=sys.stderr)
    failed = sum(1 for section in sections if section.error is not None)
    print(f"  {len(sections) - failed} passed, {failed} failed",
          file=sys.stderr)


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
    refusal = _refusal(properties, rest)
    if refusal is not None:
        print(f"error: {refusal}\n{USAGE}", file=sys.stderr)
        return 2
    output_dir = Path(rest[0]) if rest else Path("reproduction_report")
    chosen = set(rest[1:])
    experiments = [experiment for experiment in EXPERIMENTS
                   if not chosen or experiment.id in chosen]
    sections = regenerate(output_dir, experiments, sf=sf)
    for section in sections:
        if section.error is None:
            print(f"{section.experiment}: {section.title} "
                  f"({section.wall_seconds:.2f}s)")
        else:
            print(section.body, file=sys.stderr)
    total = sum(s.wall_seconds for s in sections)
    print(f"report: {output_dir / 'REPORT.md'} "
          f"({len(sections)} experiments, {total:.1f}s total)")
    failed = any(section.error is not None for section in sections)
    if failed and len(sections) > 1:
        _print_summary(sections)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
