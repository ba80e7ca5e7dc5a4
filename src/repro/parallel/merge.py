"""Merging shard results into one :class:`HarnessReport`.

Workers return :class:`~repro.measurement.checkpoint.PointOutcome`\\ s
— the one picklable, self-contained record of an executed (or
journal-replayed) design point, including the point's protocol timings
and its private trace spans.  The merge walks outcomes in **design
order** (never arrival order), builds the report through the same
:meth:`~repro.measurement.harness.HarnessReport.from_outcomes` the
sequential harness uses, and stitches the per-point traces onto a
single virtual campaign timeline.

Trace stitching and determinism
-------------------------------
Each point is measured on its own :class:`~repro.measurement.clocks.
VirtualClock` starting at zero, so its spans know nothing about the
other points.  :func:`stitch_traces` lays the points end-to-end in
design order under a synthesised ``harness.campaign`` root span —
point ``i+1`` starts where point ``i``'s extent ended — which makes the
merged timeline a pure function of the campaign spec, *independent of
the shard layout*.  The canonical stitched trace therefore exports byte
identically for any ``jobs`` value.  Passing ``shard_of`` produces the
*annotated* variant instead: the same timeline with ``shard=<k>``
stamped on every point span and the job/shard layout on the root span —
useful for debugging the executor, excluded from the canonical export
precisely because it depends on ``jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ParallelError
from repro.measurement.checkpoint import PointOutcome
from repro.measurement.harness import HarnessReport
from repro.measurement.protocol import RunProtocol
from repro.measurement.retry import RetryPolicy
from repro.obs.span import Span, SpanEvent, Trace


@dataclass(frozen=True)
class ShardSummary:
    """What one shard of the campaign executed."""

    shard: int
    indices: Tuple[int, ...]
    n_ok: int
    n_failed: int

    def format(self) -> str:
        return (f"shard {self.shard}: {len(self.indices)} point(s) "
                f"{list(self.indices)}, {self.n_ok} ok, "
                f"{self.n_failed} failed")


@dataclass(frozen=True)
class ParallelReport(HarnessReport):
    """A :class:`HarnessReport` plus the shard layout that produced it.

    Everything inherited — results, failures, raw timings,
    :meth:`~repro.measurement.harness.HarnessReport.documentation`, the
    canonical :attr:`trace` — is *executor-independent*: two runs of the
    same spec at different ``jobs`` values compare equal byte for byte.
    The parallel extras (``jobs``, ``shards``, ``sharded_trace``,
    :meth:`parallel_documentation`) are the only places the layout
    shows.
    """

    jobs: int = 1
    shards: Tuple[ShardSummary, ...] = ()
    #: The shard-annotated stitched trace (``shard=<k>`` on each point
    #: span); ``None`` unless the campaign ran with tracing on.
    sharded_trace: Optional[Trace] = None

    def parallel_documentation(self) -> str:
        """The methodology paragraph plus the executor layout."""
        layout = ", ".join(s.format() for s in self.shards) \
            or "no shards executed"
        return (f"{self.documentation()}; executed with jobs={self.jobs} "
                f"({layout})")


def stitch_traces(outcomes: Sequence[PointOutcome], *, name: str,
                  design_description: str, protocol_description: str,
                  shard_of: Optional[Mapping[int, int]] = None,
                  jobs: Optional[int] = None) -> Trace:
    """One campaign trace from per-point span bundles (design order).

    See the module docstring: the canonical variant (``shard_of=None``)
    is executor-independent; the annotated variant stamps shard
    metadata on every point span and the layout on the root.
    """
    ordered = sorted(outcomes, key=lambda o: o.index)
    root = Span(span_id=1, parent_id=None, name="harness.campaign",
                category="harness", start_s=0.0,
                attributes={"campaign": name,
                            "design": design_description,
                            "protocol": protocol_description})
    if shard_of is not None:
        root.set(jobs=jobs if jobs is not None else 1,
                 shards=len(set(shard_of.values())))
    spans: List[Span] = [root]
    orphans: List[SpanEvent] = []
    next_id = 2
    offset = 0.0
    for outcome in ordered:
        if outcome.resumed:
            root.add_event(SpanEvent(
                name="harness.point_resumed", t_s=offset,
                attributes={"index": outcome.index,
                            "status": outcome.status}))
            continue
        if not outcome.spans:
            continue
        base = min(s.start_s for s in outcome.spans)
        id_map: Dict[int, int] = {}
        for old in outcome.spans:
            if old.parent_id is None:
                parent = root.span_id
            else:
                parent = id_map.get(old.parent_id)
                if parent is None:
                    raise ParallelError(
                        f"point {outcome.index} span {old.name!r} "
                        f"references unknown parent {old.parent_id} — "
                        "shard returned a torn trace")
            if old.end_s is None:
                raise ParallelError(
                    f"point {outcome.index} span {old.name!r} is still "
                    "open — shard returned a torn trace")
            new = Span(span_id=next_id, parent_id=parent, name=old.name,
                       category=old.category,
                       start_s=old.start_s - base + offset,
                       attributes=dict(old.attributes))
            new.end_s = old.end_s - base + offset
            if shard_of is not None and old.parent_id is None:
                new.set(shard=shard_of.get(outcome.index, -1))
            for event in old.events:
                new.add_event(SpanEvent(
                    name=event.name, t_s=event.t_s - base + offset,
                    attributes=dict(event.attributes)))
            id_map[old.span_id] = next_id
            next_id += 1
            spans.append(new)
        for event in outcome.orphan_events:
            orphans.append(SpanEvent(
                name=event.name, t_s=event.t_s - base + offset,
                attributes=dict(event.attributes)))
        offset += max(s.end_s for s in outcome.spans) - base
    root.end_s = offset
    return Trace(tuple(spans), tuple(orphans))


def merge_outcomes(outcomes: Sequence[PointOutcome], *, name: str,
                   design_description: str, protocol: RunProtocol,
                   retry: Optional[RetryPolicy] = None,
                   expected_indices: Optional[Sequence[int]] = None,
                   jobs: int = 1,
                   shard_of: Optional[Mapping[int, int]] = None,
                   trace: bool = False) -> ParallelReport:
    """All shard outcomes -> one report, in design order.

    ``expected_indices`` (when given) enforces the "never a silent
    drop" rule: every expected design point must be accounted for,
    exactly once.
    """
    by_index: Dict[int, PointOutcome] = {}
    for outcome in outcomes:
        if outcome.index in by_index:
            raise ParallelError(
                f"design point {outcome.index} was executed twice — "
                "overlapping shards?")
        by_index[outcome.index] = outcome
    if expected_indices is not None:
        expected = list(expected_indices)
        missing = sorted(set(expected) - set(by_index))
        surplus = sorted(set(by_index) - set(expected))
        if missing or surplus:
            raise ParallelError(
                f"merged campaign does not cover the design: "
                f"missing points {missing}, unexpected points "
                f"{surplus} — a silent drop")
    ordered = [by_index[i] for i in sorted(by_index)]
    shard_ids = sorted(set(shard_of.values())) if shard_of else []
    summaries = []
    for shard in shard_ids:
        indices = tuple(sorted(
            i for i, k in shard_of.items() if k == shard))
        executed = [by_index[i] for i in indices if i in by_index]
        summaries.append(ShardSummary(
            shard=shard, indices=indices,
            n_ok=sum(1 for o in executed if o.ok),
            n_failed=sum(1 for o in executed if not o.ok)))
    stitched = None
    annotated = None
    if trace:
        stitch_args = dict(name=name,
                           design_description=design_description,
                           protocol_description=protocol.describe())
        stitched = stitch_traces(ordered, **stitch_args)
        annotated = stitch_traces(ordered, shard_of=shard_of or {},
                                  jobs=jobs, **stitch_args)
    return ParallelReport.from_outcomes(
        ordered, name=name, protocol=protocol,
        design_description=design_description, retry=retry,
        trace=stitched, jobs=jobs, shards=tuple(summaries),
        sharded_trace=annotated)
