"""The sharded campaign executor: many workers, one deterministic run.

:func:`run_campaign` is the parallel twin of
:func:`~repro.measurement.harness.run_harness`: it enumerates a
:class:`~repro.parallel.spec.CampaignSpec`'s design points, deals the
pending ones round-robin across ``jobs`` shards, executes every shard in
its own worker process, and merges the results into a single
:class:`~repro.parallel.merge.ParallelReport`.

Determinism contract
--------------------
Every point is executed by :func:`execute_point` on a *fresh* stack
built from ``(spec, point_index)`` alone — own virtual clock, own
engine, own fault injector, own noise model, own tracer.  ``jobs=1``
runs the very same function inline, so sequential and parallel runs are
byte-identical: same result CSV, same
:meth:`~repro.measurement.harness.HarnessReport.documentation`
paragraph, same canonical trace JSONL.  The shard layout is visible
only through :attr:`~repro.parallel.merge.ParallelReport.shards`,
:attr:`~repro.parallel.merge.ParallelReport.sharded_trace` and
:meth:`~repro.parallel.merge.ParallelReport.parallel_documentation`.

Resilience surface
------------------
``on_error="record"`` lists still-failing points' outcomes in
:attr:`~repro.measurement.harness.HarnessReport.failures` exactly like
the sequential harness; ``"raise"`` makes each shard stop at its first
failure and the campaign raise a :class:`~repro.errors.ParallelError`
naming the *lowest-index* failed point (deterministic regardless of
which shard hit its failure first).  With a ``checkpoint`` path each
shard journals completed points to ``<path>.shard<k>`` as it goes; on
resume the union of the main journal and every shard journal is
replayed, so a campaign interrupted at ``jobs=4`` resumes cleanly at
``jobs=2`` (or sequentially).  A campaign that completes folds all
shard journals into the main path and removes them.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import MeasurementError, ParallelError
from repro.measurement.checkpoint import CheckpointJournal, PointOutcome
from repro.measurement.harness import measure_point, stamp_point_span
from repro.obs import Tracer
from repro.parallel.merge import ParallelReport, merge_outcomes
from repro.parallel.spec import CampaignSpec

#: Worker start method: ``fork`` shares the parent's imports (cheap,
#: available on POSIX); ``spawn`` everywhere else.  Either way workers
#: rebuild all campaign state from the spec, so the choice cannot
#: affect results.
DEFAULT_START_METHOD = "fork" \
    if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def default_jobs() -> int:
    """A sensible ``jobs`` default: the usable CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-POSIX fallback
        return os.cpu_count() or 1


def pool_map(function: Callable[[Any], Any], payloads: Sequence[Any],
             jobs: int) -> List[Any]:
    """``[function(p) for p in payloads]`` over up to *jobs* workers.

    One worker, or at most one payload, runs inline in this process;
    otherwise a :data:`DEFAULT_START_METHOD` pool maps *function* over
    the payloads.  Results come back in payload order either way, so a
    caller whose *function* is pure gets the same list for every
    ``jobs`` value.
    """
    if jobs == 1 or len(payloads) <= 1:
        return [function(payload) for payload in payloads]
    context = multiprocessing.get_context(DEFAULT_START_METHOD)
    with context.Pool(processes=min(jobs, len(payloads))) as pool:
        return pool.map(function, payloads)


def shard_points(indices: Sequence[int], jobs: int) -> List[Tuple[int, ...]]:
    """Deal point indices round-robin into at most *jobs* shards.

    Round-robin (not contiguous blocks) spreads expensive tails —
    heavily retried, fault-prone late points — across workers.  Empty
    shards are dropped, so ``jobs`` greater than the point count simply
    yields one shard per point.
    """
    if jobs < 1:
        raise ParallelError(f"jobs must be >= 1, got {jobs}")
    shards = [tuple(indices[k::jobs]) for k in range(jobs)]
    return [shard for shard in shards if shard]


def execute_point(spec: CampaignSpec, index: int,
                  trace: bool = False) -> PointOutcome:
    """Measure one design point on a freshly built stack.

    This is *the* unit of execution for sequential and parallel runs
    alike — byte-identical results across ``jobs`` values reduce to
    this function being a pure function of ``(spec, index)``.
    """
    seed = spec.point_seed(index)
    stack = spec.build(seed)
    point = None
    for candidate in stack.design.points():
        if candidate.index == index:
            point = candidate
            break
    if point is None:
        raise ParallelError(
            f"design {stack.design.describe()!r} has no point {index}")
    tracer = Tracer(clock=stack.clock) if trace else None
    with ExitStack() as point_stack:
        point_span = None
        if tracer is not None:
            point_stack.enter_context(tracer.activate())
            point_span = point_stack.enter_context(tracer.span(
                f"harness.point[{index}]", "harness", index=index,
                config=dict(point.config), seed=seed))
        outcome = measure_point(
            stack.workload, point, stack.protocol,
            clock=stack.clock, elapsed_clock=stack.clock, label=spec.name,
            retry=stack.retry, extra_metrics=stack.extra_metrics)
        stamp_point_span(point_span, outcome)
    # The exception stays here: the record names it, and it need not
    # survive the pickle back to the parent process.
    outcome = replace(outcome, seed=seed, error=None)
    if tracer is not None:
        finished = tracer.trace()
        outcome = replace(outcome, spans=finished.spans,
                          orphan_events=finished.orphan_events)
    return outcome


def _shard_journal_path(checkpoint: "str | Path", shard: int) -> Path:
    path = Path(checkpoint)
    return path.with_name(f"{path.name}.shard{shard}")


def _run_shard(payload: Tuple[CampaignSpec, Tuple[int, ...], bool,
                              Optional[str], str]) -> List[PointOutcome]:
    """Worker entry point: execute one shard's points in order.

    Completed points are journalled immediately (crash safety); under
    ``on_error="raise"`` the shard stops at its first failed point,
    mirroring the sequential harness's abort — the failure itself is
    returned, not journalled, so a re-run retries it.
    """
    spec, indices, trace, journal_path, on_error = payload
    journal = CheckpointJournal(journal_path) \
        if journal_path is not None else None
    outcomes: List[PointOutcome] = []
    for index in indices:
        outcome = execute_point(spec, index, trace=trace)
        aborting = on_error == "raise" and not outcome.ok
        if journal is not None and not aborting:
            # The point's stack comes from its seed alone, so unlike
            # run_harness's lines this one carries no resumable state.
            journal.append(outcome)
        outcomes.append(outcome)
        if aborting:
            break
    return outcomes


def _load_resumed(checkpoint: "str | Path", points) \
        -> Dict[int, PointOutcome]:
    """Union of the main journal and every shard journal, verified.

    Entries are validated against the design (index in range, config
    equal) and against each other: the same point journalled twice must
    agree byte for byte — conflicting journals mean two different
    campaigns shared a checkpoint path, which must never silently
    contribute points.
    """
    main = Path(checkpoint)
    files: List[Path] = []
    if main.exists():
        files.append(main)
    files.extend(sorted(main.parent.glob(main.name + ".shard*")))
    by_index: Dict[int, PointOutcome] = {}
    points_by_index = {p.index: p for p in points}
    for path in files:
        journal = CheckpointJournal(path)
        for entry in journal.entries:
            point = points_by_index.get(entry.index)
            if point is None:
                raise ParallelError(
                    f"checkpoint {path} journals design point "
                    f"{entry.index}, outside this design "
                    f"({len(points_by_index)} points) — checkpoint "
                    "from a different campaign?")
            entry = journal.lookup(entry.index, point.config)
            previous = by_index.get(entry.index)
            if previous is None:
                by_index[entry.index] = entry
            elif previous.to_json() != entry.to_json():
                raise ParallelError(
                    f"conflicting journal entries for design point "
                    f"{entry.index} (found again in {path}) — two "
                    "campaigns shared this checkpoint path")
    return by_index


def _consolidate(checkpoint: "str | Path",
                 outcomes: Sequence[PointOutcome]) -> None:
    """Fold shard journals into the main path (then remove them).

    Written atomically (temp file + rename) so an interrupt during
    consolidation leaves either the old layout or the new one, never a
    half-written journal.
    """
    main = Path(checkpoint)
    main.parent.mkdir(parents=True, exist_ok=True)
    tmp = main.with_name(main.name + ".tmp")
    lines = [outcome.to_json()
             for outcome in sorted(outcomes, key=lambda o: o.index)]
    tmp.write_text("".join(line + "\n" for line in lines),
                   encoding="utf-8")
    os.replace(tmp, main)
    for path in sorted(main.parent.glob(main.name + ".shard*")):
        path.unlink()


def run_campaign(spec: CampaignSpec, jobs: int = 1, *,
                 on_error: str = "raise",
                 checkpoint: "str | Path | None" = None,
                 trace: bool = False) -> ParallelReport:
    """Execute a campaign spec across *jobs* worker processes.

    Parameters mirror :func:`~repro.measurement.harness.run_harness`
    where they overlap (``on_error``, ``checkpoint``); ``trace=True``
    collects per-point traces and stitches them (see
    :mod:`repro.parallel.merge`).  Returns a
    :class:`~repro.parallel.merge.ParallelReport` whose inherited
    surface is byte-identical for every ``jobs`` value.
    """
    if on_error not in ("raise", "record"):
        raise MeasurementError(
            f"on_error must be 'raise' or 'record', got {on_error!r}")
    if jobs < 1:
        raise ParallelError(f"jobs must be >= 1, got {jobs}")
    stack = spec.build()
    points = list(stack.design.points())
    indices = [p.index for p in points]
    if len(set(indices)) != len(indices):
        raise ParallelError(
            f"design {stack.design.describe()!r} repeats point indices")
    resumed: Dict[int, PointOutcome] = {}
    if checkpoint is not None:
        resumed = _load_resumed(checkpoint, points)
    pending = [i for i in indices if i not in resumed]
    shards = shard_points(pending, jobs)
    shard_of = {index: k for k, shard in enumerate(shards)
                for index in shard}
    payloads = [
        (spec, shard, trace,
         str(_shard_journal_path(checkpoint, k))
         if checkpoint is not None else None,
         on_error)
        for k, shard in enumerate(shards)]
    shard_results = pool_map(_run_shard, payloads, jobs)
    outcomes: List[PointOutcome] = list(resumed.values())
    for shard_outcomes in shard_results:
        outcomes.extend(shard_outcomes)
    if on_error == "raise":
        fresh_failures = sorted(
            (o for o in outcomes if not o.ok and not o.resumed),
            key=lambda o: o.index)
        if fresh_failures:
            first = fresh_failures[0]
            aborted = "campaign aborted; completed points are " \
                "journalled" if checkpoint is not None \
                else "campaign aborted"
            raise ParallelError(
                f"design point {first.index} {first.config} failed "
                f"after {first.attempts} attempt(s): "
                f"{first.error_type}: {first.error_message} "
                f"({aborted})")
    # Every outcome here is journalled: an unjournalled failure raised.
    if checkpoint is not None and \
            {outcome.index for outcome in outcomes} == set(indices):
        _consolidate(checkpoint, outcomes)
    return merge_outcomes(
        outcomes, name=spec.name,
        design_description=stack.design.describe(),
        protocol=stack.protocol, retry=stack.retry,
        expected_indices=indices, jobs=jobs, shard_of=shard_of,
        trace=trace)

