"""Command-line runner for experiment suites.

The manifests generated by :mod:`repro.repeat.manifest` tell a reviewer
to repeat an experiment with::

    python -m repro.repeat.run <suite-module> [experiment] [options]

``suite-module`` is a dotted module path exporting either a module-level
``SUITE`` (an :class:`~repro.repeat.suite.ExperimentSuite`) or a
zero-argument ``build_suite()`` factory.  Without an experiment name,
every registered experiment runs (the slide-234 one-command property).
``-Dkey=value`` arguments override suite properties, exactly like the
Java invocation on slide 195.

Resilience options keep the one-command property alive through faults:
``--keep-going`` continues with the remaining experiments when one
fails (every failure still makes the exit code non-zero), and
``--resume <checkpoint>`` exposes a checkpoint path to the experiments
as the ``checkpoint`` property, so harness-based experiments replay
completed design points instead of re-measuring them.  Either way a
failing experiment produces a per-experiment pass/fail summary, never a
raw traceback.

``--trace <path>`` exposes a trace output path as the ``trace``
property; an experiment that supports tracing runs its campaign under
a :class:`~repro.obs.Tracer` and writes the JSONL span log there.

``--jobs N`` exposes a worker count as the ``jobs`` property;
experiments that fan out (e.g. E24's serving grid) spread their work
over ``N`` worker processes.  Results are byte-identical for every
``N`` — the flag changes wall-clock, never the numbers.

``--clients N`` and ``--arrival-rate R`` expose serving-traffic knobs
as the ``clients`` / ``arrival_rate`` properties; experiments wired to
the serving layer (E24) drive MiniDB through
:func:`repro.serve.make_traffic` with them.  Nonsensical combinations —
a closed-loop client population given an open-loop arrival rate — are
rejected here, before anything runs: an arrival rate implies open-loop
traffic, a think time implies closed-loop, and declaring both workloads
at once is a specification bug, not a runnable configuration.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigError, ReproError, SuiteError
from repro.repeat.suite import ExperimentSuite

USAGE = (
    "usage: python -m repro.repeat.run <suite-module> [experiment] "
    "[options] [-Dkey=value ...]\n"
    "  <suite-module>  dotted module exporting SUITE or build_suite()\n"
    "  [experiment]    one experiment name; default: run all\n"
    "  -Dkey=value     property overrides (slide 195 style)\n"
    "  --keep-going    continue with remaining experiments after a "
    "failure\n"
    "  --resume PATH   resume from a harness checkpoint (exposed to\n"
    "                  experiments as the 'checkpoint' property)\n"
    "  --trace PATH    trace the run (exposed to experiments as the\n"
    "                  'trace' property; tracing experiments write a\n"
    "                  JSONL span log there; refuses to overwrite an\n"
    "                  existing file unless --force is given)\n"
    "  --force         allow --trace to overwrite an existing file\n"
    "  --jobs N        shard campaigns over N worker processes\n"
    "                  (exposed to experiments as the 'jobs' property;\n"
    "                  results are byte-identical for every N)\n"
    "  --clients N     serving-layer client/session count (exposed as\n"
    "                  the 'clients' property; see repro.serve)\n"
    "  --arrival-rate R  open-loop offered load in requests/second\n"
    "                  (exposed as the 'arrival_rate' property;\n"
    "                  incompatible with closed-loop traffic)")


def load_suite(module_path: str) -> ExperimentSuite:
    """Import a module and extract its experiment suite."""
    try:
        module = importlib.import_module(module_path)
    except ImportError as exc:
        raise SuiteError(
            f"cannot import suite module {module_path!r}: {exc}") from exc
    suite = getattr(module, "SUITE", None)
    if suite is None:
        factory = getattr(module, "build_suite", None)
        if factory is None:
            raise SuiteError(
                f"module {module_path!r} exposes neither SUITE nor "
                "build_suite()")
        suite = factory()
    if not isinstance(suite, ExperimentSuite):
        raise SuiteError(
            f"{module_path!r} produced {type(suite).__name__}, expected "
            "an ExperimentSuite")
    return suite


def _parse_jobs(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        raise ConfigError(f"--jobs needs an integer, got {value!r}")
    if jobs < 1:
        raise ConfigError(f"--jobs needs a worker count >= 1, got {jobs}")
    return jobs


def _parse_clients(value: str) -> int:
    try:
        clients = int(value)
    except ValueError:
        raise ConfigError(f"--clients needs an integer, got {value!r}")
    if clients < 0:
        raise ConfigError(
            f"--clients needs a count >= 0, got {clients}")
    return clients


def _parse_arrival_rate(value: str) -> float:
    try:
        rate = float(value)
    except ValueError:
        raise ConfigError(
            f"--arrival-rate needs a number (req/s), got {value!r}")
    if rate <= 0:
        raise ConfigError(
            f"--arrival-rate needs a rate > 0 req/s, got {rate}")
    return rate


@dataclass
class _Flags:
    """Everything :func:`_parse_flags` splits out of the argv."""

    rest: List[str] = field(default_factory=list)
    keep_going: bool = False
    resume: Optional[str] = None
    trace: Optional[str] = None
    force: bool = False
    jobs: Optional[int] = None
    clients: Optional[int] = None
    arrival_rate: Optional[float] = None


def _parse_flags(argv: Sequence[str]) -> _Flags:
    """Split the known ``--`` options out of the argv."""
    flags = _Flags()
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--keep-going":
            flags.keep_going = True
        elif arg == "--force":
            flags.force = True
        elif arg == "--resume":
            if not args:
                raise ConfigError("--resume needs a checkpoint path")
            flags.resume = args.pop(0)
        elif arg.startswith("--resume="):
            flags.resume = arg.split("=", 1)[1]
            if not flags.resume:
                raise ConfigError("--resume needs a checkpoint path")
        elif arg == "--trace":
            if not args:
                raise ConfigError("--trace needs an output path")
            flags.trace = args.pop(0)
        elif arg.startswith("--trace="):
            flags.trace = arg.split("=", 1)[1]
            if not flags.trace:
                raise ConfigError("--trace needs an output path")
        elif arg == "--jobs":
            if not args:
                raise ConfigError("--jobs needs a worker count")
            flags.jobs = _parse_jobs(args.pop(0))
        elif arg.startswith("--jobs="):
            flags.jobs = _parse_jobs(arg.split("=", 1)[1])
        elif arg == "--clients":
            if not args:
                raise ConfigError("--clients needs a client count")
            flags.clients = _parse_clients(args.pop(0))
        elif arg.startswith("--clients="):
            flags.clients = _parse_clients(arg.split("=", 1)[1])
        elif arg == "--arrival-rate":
            if not args:
                raise ConfigError(
                    "--arrival-rate needs a rate in req/s")
            flags.arrival_rate = _parse_arrival_rate(args.pop(0))
        elif arg.startswith("--arrival-rate="):
            flags.arrival_rate = _parse_arrival_rate(
                arg.split("=", 1)[1])
        elif arg.startswith("--"):
            raise ConfigError(f"unknown option {arg!r}")
        else:
            flags.rest.append(arg)
    return flags


def _check_serving_flags(properties) -> None:
    """Refuse contradictory traffic specs before anything runs.

    The serving layer re-validates through
    :func:`repro.serve.make_traffic`; this copy of the check turns the
    mistake into a CLI usage error instead of a mid-run failure.
    """
    loop = properties.get("loop", "")
    arrival = properties.get("arrival_rate", "")
    think = properties.get("think_time", "")
    if loop == "closed" and arrival:
        raise ConfigError(
            "closed-loop traffic is driven by clients and think time; "
            "--arrival-rate is an open-loop knob — drop it or use "
            "-Dloop=open")
    if loop == "open" and think:
        raise ConfigError(
            "open-loop traffic is driven by an arrival rate; "
            "-Dthink_time belongs to closed-loop clients — drop it or "
            "use -Dloop=closed")
    if arrival and think and not loop:
        raise ConfigError(
            "--arrival-rate (open-loop) and -Dthink_time (closed-loop) "
            "declare two different workloads; pick one")


def _print_summary(statuses: Sequence[Tuple[str, str, str]]) -> None:
    """Per-experiment pass/fail table (the 'report what went wrong')."""
    print("-- experiment summary " + "-" * 32, file=sys.stderr)
    for name, verdict, detail in statuses:
        line = f"  {name:<24} {verdict}"
        if detail:
            line += f"  {detail}"
        print(line, file=sys.stderr)
    n_failed = sum(1 for __, verdict, __ in statuses
                   if verdict == "FAILED")
    n_skipped = sum(1 for __, verdict, __ in statuses
                    if verdict == "skipped")
    print(f"  {len(statuses) - n_failed - n_skipped} passed, "
          f"{n_failed} failed, {n_skipped} skipped", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0 if argv else 2
    try:
        flags = _parse_flags(argv)
        keep_going = flags.keep_going
        if not flags.rest:
            print(USAGE, file=sys.stderr)
            return 2
        module_path = flags.rest[0]
        suite = load_suite(module_path)
        rest = suite.properties.apply_cli_overrides(flags.rest[1:])
        if len(rest) > 1:
            print(USAGE, file=sys.stderr)
            return 2
        if flags.resume is not None:
            suite.properties.set("checkpoint", flags.resume)
        if flags.trace is not None:
            if os.path.exists(flags.trace) and not flags.force:
                raise ConfigError(
                    f"--trace {flags.trace!r} already exists; a span "
                    "log from an earlier run would be silently "
                    "destroyed — pass --force to overwrite it")
            suite.properties.set("trace", flags.trace)
        if flags.jobs is not None:
            suite.properties.set("jobs", str(flags.jobs))
        if flags.clients is not None:
            suite.properties.set("clients", str(flags.clients))
        if flags.arrival_rate is not None:
            suite.properties.set("arrival_rate",
                                 repr(flags.arrival_rate))
        _check_serving_flags(suite.properties)
        names: List[str] = [rest[0]] if rest else \
            list(suite.experiment_names)
        for name in names:
            suite.experiment(name)  # fail fast on a typoed name
    except (SuiteError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    statuses: List[Tuple[str, str, str]] = []
    aborted = False
    for name in names:
        if aborted:
            statuses.append((name, "skipped", "(earlier failure; use "
                             "--keep-going to run anyway)"))
            continue
        try:
            run = suite.run(name)
        except ReproError as exc:
            detail = f"{type(exc).__name__}: {exc}"
            print(f"{name}: FAILED ({detail})", file=sys.stderr)
            statuses.append((name, "FAILED", detail))
            if not keep_going:
                aborted = True
            continue
        print(f"{name}: {len(run.results)} points -> {run.csv_path} "
              f"({run.wall_seconds:.2f}s)")
        if run.gnuplot_path is not None:
            print(f"{name}: graph script -> {run.gnuplot_path}")
        if flags.trace is not None and os.path.exists(flags.trace):
            print(f"{name}: trace -> {flags.trace}")
        statuses.append((name, "ok", f"{len(run.results)} points"))

    any_failed = any(verdict != "ok" for __, verdict, __ in statuses)
    if any_failed and len(statuses) > 1:
        _print_summary(statuses)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
