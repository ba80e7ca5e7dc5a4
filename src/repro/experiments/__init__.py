"""Paper experiments: one module per tutorial table/figure (E01-E28).

Each ``eNN_*`` module exposes a ``run_eNN(...)`` function returning a
typed result object with a ``format()`` method that prints the same
rows or series the tutorial shows.  :data:`EXPERIMENTS` registers all
28 in id order; ``python -m repro.experiments.report`` enumerates it,
so one command regenerates every table and artifact.  The benchmark
harness under ``benchmarks/`` and the integration tests under
``tests/integration/`` drive the same ``run_eNN`` functions, so the
reproduction is checked and timed from one code path.

See DESIGN.md for the experiment index and EXPERIMENTS.md for the
paper-vs-measured record.
"""

import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.experiments import (
    e24_serving,
    e25_optimizer,
    e26_observatory,
    e27_cross_system,
)
from repro.experiments.e01_server_client import run_e01
from repro.experiments.e02_hot_cold import run_e02
from repro.experiments.e03_dbg_opt import run_e03
from repro.experiments.e04_memory_wall import run_e04
from repro.experiments.e05_profile import run_e05
from repro.experiments.e06_interaction import run_e06
from repro.experiments.e07_design_sizes import run_e07
from repro.experiments.e08_orthogonal import run_e08
from repro.experiments.e09_twotwo import run_e09
from repro.experiments.e10_allocation import run_e10
from repro.experiments.e11_fractional import run_e11
from repro.experiments.e12_confounding import run_e12
from repro.experiments.e13_guidelines import run_e13
from repro.experiments.e14_histogram import run_e14
from repro.experiments.e15_gnuplot import run_e15
from repro.experiments.e16_locale import run_e16
from repro.experiments.e17_sigmod import run_e17
from repro.experiments.e18_fair_comparison import run_e18
from repro.experiments.e19_metrics import run_e19
from repro.experiments.e20_twostage import run_e20
from repro.experiments.e21_fault_tolerance import run_e21
from repro.experiments.e22_trace_contrast import run_e22
from repro.experiments.e23_vectorized import run_e23
from repro.experiments.e24_serving import run_e24
from repro.experiments.e25_optimizer import run_e25
from repro.experiments.e26_observatory import run_e26
from repro.experiments.e27_cross_system import run_e27
from repro.experiments.e28_cache import run_e28
from repro.parallel import default_jobs

#: The report's default scale factor.  At it every experiment runs with
#: the arguments behind the numbers EXPERIMENTS.md quotes: its own
#: defaults.
REFERENCE_SF = 0.01


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    ``run(sf, outdir)`` runs it at report scale factor ``sf`` and
    returns the result, which has ``format()``.  An experiment with
    files to publish writes them under ``outdir``.
    """

    id: str
    title: str
    run: Callable[[float, Path], Any]


def _scaled(default, sf: float):
    """A size that is *default* at :data:`REFERENCE_SF`, in proportion
    to *sf* elsewhere; whole sizes stay whole and positive."""
    if isinstance(default, tuple):
        return tuple(_scaled(value, sf) for value in default)
    size = default * (sf / REFERENCE_SF)
    return max(1, round(size)) if isinstance(default, int) else size


def _at(sf: float, run: Callable[..., Any], *sizes: str, **kwargs: Any):
    """Call *run* with each parameter named in *sizes* at its default,
    scaled to *sf*, plus *kwargs*."""
    parameters = inspect.signature(run).parameters
    scaled = {name: _scaled(parameters[name].default, sf)
              for name in sizes}
    return run(**scaled, **kwargs)


def _exported(result, export: Callable[[Any, str], Any], outdir: Path):
    """Write *result*'s artifacts under *outdir*; return *result*."""
    export(result, str(outdir))
    return result


def _e24(sf: float, outdir: Path):
    # Every cell has its own seed, so any jobs value gives these bytes.
    result = _at(sf, run_e24, "duration_s", jobs=default_jobs())
    e24_serving.check_charts(result)
    return _exported(result, e24_serving.export_artifacts, outdir)


#: Every experiment, in id order.  Each entry names the size parameters
#: of its experiment, which scale with ``sf``.  E01, E02 and E05 take the
#: report's sf as is; E28 has no size parameter, since its cache regimes
#: are fixed sizes relative to the simulated cache.
EXPERIMENTS = (
    Experiment("E01", "server vs client time, file vs terminal",
               lambda sf, out: run_e01(sf=sf)),
    Experiment("E02", "hot vs cold runs", lambda sf, out: run_e02(sf=sf)),
    Experiment("E03", "DBG/OPT ratio across 22 queries",
               lambda sf, out: _at(sf, run_e03, "sf")),
    Experiment("E04", "the memory wall", lambda sf, out: run_e04()),
    Experiment("E05", "Q1 profile: tuple vs column engine",
               lambda sf, out: run_e05(sf=sf)),
    Experiment("E06", "factor interaction tables",
               lambda sf, out: run_e06()),
    Experiment("E07", "design sizes", lambda sf, out: run_e07()),
    Experiment("E08", "orthogonal-array design",
               lambda sf, out: run_e08()),
    Experiment("E09", "the 2^2 worked example", lambda sf, out: run_e09()),
    Experiment("E10", "allocation of variation",
               lambda sf, out: run_e10()),
    Experiment("E11", "the 2^(7-4) sign table", lambda sf, out: run_e11()),
    Experiment("E12", "confounding D=ABC vs D=AB",
               lambda sf, out: run_e12()),
    Experiment("E13", "presentation-rule linting",
               lambda sf, out: run_e13()),
    Experiment("E14", "histogram cell sizes", lambda sf, out: run_e14()),
    Experiment("E15", "automatic gnuplot generation",
               lambda sf, out: _at(sf, run_e15, "sf_values", root=out)),
    Experiment("E16", "locale corruption", lambda sf, out: run_e16()),
    Experiment("E17", "SIGMOD 2008 repeatability",
               lambda sf, out: run_e17()),
    Experiment("E18", "apples and oranges",
               lambda sf, out: _at(sf, run_e18, "sf")),
    Experiment("E19", "metric catalogue",
               lambda sf, out: _at(sf, run_e19, "sf")),
    Experiment("E20", "two-stage methodology",
               lambda sf, out: _at(sf, run_e20, "sf")),
    Experiment("E21", "fault injection vs retry budget",
               lambda sf, out: _at(sf, run_e21, "sf")),
    Experiment("E22", "same query, two very different traces",
               lambda sf, out: _at(sf, run_e22, "sf",
                                   trace_dir=str(out))),
    Experiment("E23", "loop vs vectorized executor",
               lambda sf, out: _at(sf, run_e23, "rows_low", "rows_high")),
    Experiment("E24", "serving under load and overload", _e24),
    Experiment("E25", "cost-based optimizer: speedup, plan quality, "
               "q-errors",
               lambda sf, out: _exported(
                   _at(sf, run_e25, "rows_low", "rows_high"),
                   e25_optimizer.export_artifacts, out)),
    Experiment("E26", "performance observatory: feedback and the "
               "noise-aware gate",
               lambda sf, out: _exported(
                   _at(sf, run_e26, "n_fact"),
                   e26_observatory.export_artifacts, out)),
    Experiment("E27", "cross-system comparison, fair and unfair",
               lambda sf, out: _exported(
                   _at(sf, run_e27, "n_fact"),
                   e27_cross_system.export_artifacts, out)),
    Experiment("E28", "cache-conscious joins: the radix-bits curve",
               lambda sf, out: run_e28()),
)

__all__ = ["EXPERIMENTS", "Experiment", "REFERENCE_SF"] + [
    f"run_e{i:02d}" for i in range(1, 29)]
