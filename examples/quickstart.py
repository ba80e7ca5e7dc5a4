"""Quickstart: design an experiment, run it on MiniDB, analyse the effects.

The 60-second tour of the framework:

1. declare two-level factors (here: selectivity and the executor's
   cost profile, per-row loop vs Volcano tuple-at-a-time);
2. build a 2^k factorial design;
3. run a MiniDB micro-benchmark at every design point under a documented
   hot-run protocol;
4. fit the additive model (sign-table method) and allocate variation —
   which factor actually matters?

Run with::

    python examples/quickstart.py
"""

from repro.core import (
    FactorSpace,
    TwoLevelFactorialDesign,
    allocate_variation,
    estimate_effects,
    two_level,
)
from repro.db import EngineConfig
from repro.workloads import select_microbenchmark


def run_once(config):
    """One experiment: a selection micro-benchmark, simulated hot ms."""
    bench = select_microbenchmark(
        n_rows=20_000, selectivity=config["selectivity"],
        config=EngineConfig(executor=config["executor"]))
    bench.run()                       # warm-up: buffer pool now hot
    start = bench.engine.clock.now
    bench.run()                       # measured hot run
    return (bench.engine.clock.now - start) * 1000.0


def main():
    space = FactorSpace([
        two_level("selectivity", 0.01, 0.5),
        two_level("executor", "loop", "tuple"),
    ])
    design = TwoLevelFactorialDesign(space)

    print("design (sign-table order):")
    responses = []
    for point in design.points():
        ms = run_once(point.config)
        responses.append(ms)
        print(f"  {point.config}  ->  {ms:8.2f} ms (simulated)")

    model = estimate_effects(design, responses)
    print("\nfitted model:")
    print(" ", model.describe())

    report = allocate_variation(design, responses)
    print("\nallocation of variation:")
    for name, pct in report.ranked():
        print(f"  {name:<18} {pct:5.1f}%")
    print(f"\ndominant factor: {report.dominant()}")
    print("(the execution model dwarfs the selectivity: exactly why the")
    print(" tutorial says to evaluate factor importance before sweeping)")


if __name__ == "__main__":
    main()
