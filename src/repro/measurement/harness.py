"""The measurement harness: run a workload over a design under a protocol.

This is where the three planning ingredients of the tutorial meet:

- a **design** chooses which configurations to measure
  (:mod:`repro.core.designs`);
- a **protocol** says how each configuration is measured
  (:mod:`repro.measurement.protocol`);
- the harness collects everything into a factor-keyed
  :class:`~repro.measurement.results.ResultSet` ready for analysis and
  plotting.

The workload is any object implementing :class:`Workload`'s three hooks
(setup/run/make_cold); plain callables can be adapted with
:func:`workload_from_callable`.

The harness is *resilient*: with a
:class:`~repro.measurement.retry.RetryPolicy` transient faults are
retried with backoff, with ``on_error="record"`` a point that still
fails becomes an explicit :class:`FailedPoint` in the
:class:`HarnessReport` instead of aborting the campaign, and with a
``checkpoint`` path every completed point is journalled so an
interrupted campaign resumes from where it stopped
(:mod:`repro.measurement.checkpoint`).
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import MeasurementError, ReproError, RetryExhaustedError
from repro.core.designs import Design
from repro.measurement.checkpoint import CheckpointEntry, CheckpointJournal
from repro.measurement.clocks import Clock, ProcessClock
from repro.measurement.protocol import (
    PickRule,
    ProtocolResult,
    RunProtocol,
    State,
)
from repro.measurement.results import ResultSet
from repro.measurement.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Trace, Tracer


class Workload:
    """A configurable, re-runnable unit of measured work.

    Subclasses override :meth:`run` (mandatory) plus optionally
    :meth:`setup` (applied once per configuration, unmeasured) and
    :meth:`make_cold` (restore the cold state; needed for cold protocols).
    """

    def setup(self, config: Mapping[str, Any]) -> None:
        """Apply one design point's configuration (unmeasured)."""

    def run(self) -> None:
        """Execute the measured work once."""
        raise NotImplementedError

    def make_cold(self) -> None:
        """Restore the cold state.  Default: not supported."""
        raise MeasurementError(
            f"{type(self).__name__} does not support cold runs "
            "(no make_cold implementation)")

    @property
    def supports_cold(self) -> bool:
        return type(self).make_cold is not Workload.make_cold


class _CallableWorkload(Workload):
    def __init__(self, fn: Callable[[Mapping[str, Any]], None],
                 make_cold: Optional[Callable[[], None]] = None):
        self._fn = fn
        self._make_cold = make_cold
        self._config: Mapping[str, Any] = {}

    def setup(self, config: Mapping[str, Any]) -> None:
        self._config = config

    def run(self) -> None:
        self._fn(self._config)

    def make_cold(self) -> None:
        if self._make_cold is None:
            super().make_cold()
        else:
            self._make_cold()

    @property
    def supports_cold(self) -> bool:
        return self._make_cold is not None


def workload_from_callable(fn: Callable[[Mapping[str, Any]], None],
                           make_cold: Optional[Callable[[], None]] = None
                           ) -> Workload:
    """Adapt ``fn(config)`` (plus optional cold hook) into a Workload."""
    return _CallableWorkload(fn, make_cold)


@dataclass(frozen=True)
class FailedPoint:
    """A design point that could not be measured, explicitly recorded.

    The tutorial's "report what went wrong" guideline: a failed point is
    data, not something to silently drop.  ``attempts`` counts how many
    times the point was tried (including retries); ``elapsed_s`` is the
    time spent on it against the harness clock.
    """

    index: int
    config: Mapping[str, Any]
    error_type: str
    error_message: str
    attempts: int = 1
    elapsed_s: float = 0.0

    def format(self) -> str:
        return (f"point {self.index} {dict(self.config)}: "
                f"{self.error_type} after {self.attempts} attempt(s) "
                f"({self.error_message})")


@dataclass(frozen=True)
class PointMeasurement:
    """What measuring one design point produced.

    Either ``metrics`` and the protocol ``result`` or the ``error``
    that stopped the point; ``elapsed_s`` is the time the point took
    against the harness clock in both cases.
    """

    elapsed_s: float
    metrics: Optional[Dict[str, float]] = None
    result: Optional[ProtocolResult] = None
    error: Optional[ReproError] = None

    @property
    def attempts(self) -> int:
        """Protocol executions the point took, retries included."""
        if self.error is None:
            return self.result.attempts
        if isinstance(self.error, RetryExhaustedError):
            return self.error.attempts
        return 1


def measure_point(workload: Workload, config: Mapping[str, Any],
                  protocol: RunProtocol, *, clock: Optional[Clock],
                  elapsed_clock: Clock, label: str,
                  retry: Optional[RetryPolicy],
                  extra_metrics: Optional[
                      Callable[[Mapping[str, Any]], Mapping[str, float]]]
                  ) -> PointMeasurement:
    """Set *workload* up for *config* and measure it under *protocol*.

    The metrics are ``real_ms``, ``user_ms`` and ``sys_ms`` of the
    protocol's picked run plus ``extra_metrics(config)``, which may not
    shadow them.  A :class:`~repro.errors.ReproError` is returned in
    the measurement, not raised; what to do with it is the caller's
    choice (:func:`run_harness` and
    :func:`repro.parallel.executor.execute_point` both call this).
    """
    make_cold = workload.make_cold if workload.supports_cold else None
    started = elapsed_clock.sample()
    try:
        workload.setup(config)
        result = protocol.execute(workload.run, make_cold=make_cold,
                                  clock=clock, label=label, retry=retry)
        picked = result.picked
        metrics = {
            "real_ms": picked.real_ms(),
            "user_ms": picked.user_ms(),
            "sys_ms": picked.system_ms(),
        }
        if extra_metrics is not None:
            extra = dict(extra_metrics(config))
            overlap = set(extra) & set(metrics)
            if overlap:
                raise MeasurementError(
                    f"extra metrics shadow built-ins: {sorted(overlap)}")
            metrics.update(extra)
    except ReproError as exc:
        return PointMeasurement(
            elapsed_s=(elapsed_clock.sample() - started).real, error=exc)
    return PointMeasurement(
        elapsed_s=(elapsed_clock.sample() - started).real,
        metrics=metrics, result=result)


@dataclass(frozen=True)
class HarnessReport:
    """Everything a harness execution produced."""

    results: ResultSet
    raw: Mapping[int, ProtocolResult]  # design point index -> full timings
    protocol: RunProtocol
    design_description: str
    failures: Tuple[FailedPoint, ...] = ()
    retry: Optional[RetryPolicy] = None
    resumed_points: int = 0
    #: Structured span timeline of the campaign, when it ran under a
    #: :class:`~repro.obs.Tracer` (see :mod:`repro.obs`).
    trace: Optional[Trace] = None

    @property
    def n_measured(self) -> int:
        return len(self.results)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def n_points(self) -> int:
        return self.n_measured + self.n_failed

    @property
    def survival_rate(self) -> float:
        """Fraction of design points that produced a measurement."""
        return self.n_measured / self.n_points if self.n_points else 1.0

    @property
    def total_attempts(self) -> int:
        """Protocol executions across measured and failed points."""
        measured = sum(outcome.attempts for outcome in self.raw.values())
        failed = sum(point.attempts for point in self.failures)
        return measured + failed

    @property
    def total_retries(self) -> int:
        """Attempts beyond the first, across all points."""
        return self.total_attempts - len(self.raw) - self.n_failed

    def require_complete(self) -> "HarnessReport":
        """This report, or a clear diagnostic if any point failed.

        Analysis entry points that cannot mask missing cells (effect
        estimation, allocation of variation) should call this first.
        """
        if self.failures:
            listing = "; ".join(p.format() for p in self.failures)
            raise MeasurementError(
                f"{self.n_failed} of {self.n_points} design points "
                f"failed and cannot enter a full-design analysis — "
                f"re-run them, raise the retry budget, or analyse a "
                f"masked subset explicitly.  Failures: {listing}")
        return self

    def self_audit(self) -> Tuple[Tuple[str, bool], ...]:
        """Mechanical methodology checklist, Krishnamachari style.

        Each entry is ``(check, passed)``; the checks are the questions
        a referee would ask of the measurement discipline and that the
        report can answer about itself — repetition count, warm-state
        control, estimator choice, coverage, declared retry policy and
        raw-sample retention.  :meth:`documentation` appends the tally
        so the audit travels with the published paragraph.
        """
        return (
            ("repetitions >= 3 so run-to-run variance is observable",
             self.protocol.repetitions >= 3),
            ("warm state controlled (explicit cold runs or >= 1 "
             "unmeasured warm-up)",
             self.protocol.state is State.COLD
             or self.protocol.warmups >= 1),
            ("summary is an order statistic (min/median/last), not a "
             "mean", self.protocol.pick is not PickRule.MEAN),
            ("every design point measured", self.survival_rate == 1.0),
            ("retry discipline declared up front",
             self.retry is not None),
            ("raw per-repetition timings retained for CI analysis",
             bool(self.raw)),
        )

    def documentation(self) -> str:
        """The methodology paragraph to publish with the numbers.

        Per the tutorial, this reports not just what was done but what
        went *wrong*: the retry discipline, resumed points, and every
        design point that stayed failed.
        """
        parts = [f"{self.design_description}; "
                 f"protocol: {self.protocol.describe()}"]
        if self.retry is not None:
            parts.append(f"retry policy: {self.retry.describe()}")
        if self.resumed_points:
            parts.append(f"{self.resumed_points} point(s) replayed from "
                         "a checkpoint of an interrupted campaign")
        retries = self.total_retries
        if retries:
            parts.append(f"{retries} retried attempt(s) across the "
                         "campaign")
        if self.failures:
            failed = ", ".join(
                f"#{p.index} ({p.error_type}, {p.attempts} attempts)"
                for p in self.failures)
            parts.append(f"{self.n_failed} of {self.n_points} point(s) "
                         f"failed and are excluded from the result set: "
                         f"{failed}")
        elif self.retry is not None:
            parts.append("all points measured")
        if self.trace is not None:
            parts.append(f"trace: {self.trace.summary()}")
        audit = self.self_audit()
        passed = sum(1 for __, ok in audit if ok)
        tally = f"self-audit: {passed}/{len(audit)} checks passed"
        flagged = [label for label, ok in audit if not ok]
        if flagged:
            tally += " (flagged: " + ", ".join(flagged) + ")"
        parts.append(tally)
        return "; ".join(parts)


def run_harness(design: Design, workload: Workload,
                protocol: RunProtocol,
                clock: Optional[Clock] = None,
                extra_metrics: Optional[
                    Callable[[Mapping[str, Any]], Mapping[str, float]]] = None,
                name: str = "results",
                retry: Optional[RetryPolicy] = None,
                on_error: str = "raise",
                checkpoint: Optional[Any] = None,
                resumables: Optional[Mapping[str, Any]] = None,
                tracer: Optional[Tracer] = None
                ) -> HarnessReport:
    """Measure *workload* at every design point under *protocol*.

    For each point the harness records ``real_ms``, ``user_ms`` and
    ``sys_ms`` of the protocol's picked run; ``extra_metrics(config)`` may
    contribute additional columns (e.g. result sizes, simulated cache
    misses) evaluated after the measured runs.

    Resilience parameters
    ---------------------
    retry:
        Optional :class:`~repro.measurement.retry.RetryPolicy`; transient
        faults restart the point's protocol execution with backoff
        charged to *clock*.
    on_error:
        ``"raise"`` (default) aborts on the first failed point, matching
        the historical behaviour.  ``"record"`` degrades gracefully: the
        failed point becomes a :class:`FailedPoint` in the report and
        the campaign continues.
    checkpoint:
        Optional path of a :class:`~repro.measurement.checkpoint.
        CheckpointJournal`.  Completed points (measured *or* failed) are
        journalled immediately; re-running with the same path replays
        them instead of re-executing, so an interrupted campaign resumes
        at the first incomplete point.
    resumables:
        Mapping of name -> object with ``state_dict()`` /
        ``load_state_dict()`` (e.g. a
        :class:`~repro.faults.FaultInjector` or
        :class:`~repro.measurement.noise.NoiseModel`).  Their states are
        journalled with every point and restored on resume, so resumed
        campaigns continue identical random streams.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  The harness activates it
        for the whole campaign (so every instrumented layer below —
        protocol, retries, engine, buffer pool, disk, faults —
        contributes spans and events), wraps the campaign and each
        design point in spans, and attaches the finished
        :class:`~repro.obs.Trace` to :attr:`HarnessReport.trace`.
        Build it on the campaign's clock for a deterministic trace.
    """
    if on_error not in ("raise", "record"):
        raise MeasurementError(
            f"on_error must be 'raise' or 'record', got {on_error!r}")
    if resumables and checkpoint is None:
        raise MeasurementError(
            "resumables only make sense with a checkpoint path")
    journal = CheckpointJournal(checkpoint) if checkpoint is not None \
        else None
    if journal is not None and resumables:
        _validate_resumables(resumables)
    elapsed_clock = clock if clock is not None else ProcessClock()
    results = ResultSet(name=name)
    raw: Dict[int, ProtocolResult] = {}
    failures: List[FailedPoint] = []
    resumed = 0
    state_restored = False

    with ExitStack() as campaign_stack:
        if tracer is not None:
            campaign_stack.enter_context(tracer.activate())
            campaign_stack.enter_context(tracer.span(
                "harness.campaign", "harness", campaign=name,
                design=design.describe(),
                protocol=protocol.describe()))
        for point in design.points():
            entry = journal.lookup(point.index, point.config) \
                if journal is not None else None
            if entry is not None:
                # Replay a completed point from the journal.
                if entry.ok:
                    results.add(point.config, entry.metrics)
                else:
                    failures.append(FailedPoint(
                        index=point.index, config=dict(point.config),
                        error_type=entry.error_type,
                        error_message=entry.error_message,
                        attempts=entry.attempts,
                        elapsed_s=entry.elapsed_s))
                resumed += 1
                if tracer is not None:
                    tracer.event("harness.point_resumed",
                                 index=point.index, status=entry.status)
                continue
            if journal is not None and resumables and resumed \
                    and not state_restored:
                _restore_states(journal, resumables)
            state_restored = True

            with ExitStack() as point_stack:
                point_span = None
                if tracer is not None:
                    point_span = point_stack.enter_context(tracer.span(
                        f"harness.point[{point.index}]", "harness",
                        index=point.index, config=dict(point.config)))
                measured = measure_point(
                    workload, point.config, protocol, clock=clock,
                    elapsed_clock=elapsed_clock, label=name, retry=retry,
                    extra_metrics=extra_metrics)
                error = measured.error
                if error is not None:
                    if on_error == "raise":
                        raise error
                    failed = FailedPoint(
                        index=point.index, config=dict(point.config),
                        error_type=type(error).__name__,
                        error_message=str(error),
                        attempts=measured.attempts,
                        elapsed_s=measured.elapsed_s)
                    failures.append(failed)
                    if point_span is not None:
                        point_span.set(status="failed",
                                       error_type=failed.error_type,
                                       attempts=failed.attempts)
                    if journal is not None:
                        journal.append(CheckpointEntry(
                            index=point.index,
                            config=dict(point.config),
                            status="failed", attempts=failed.attempts,
                            elapsed_s=failed.elapsed_s,
                            error_type=failed.error_type,
                            error_message=failed.error_message,
                            state=_capture_states(resumables)))
                    continue
                metrics = measured.metrics
                results.add(point.config, metrics)
                raw[point.index] = measured.result
                if point_span is not None:
                    point_span.set(status="ok",
                                   attempts=measured.attempts,
                                   real_ms=metrics["real_ms"])
                if journal is not None:
                    journal.append(CheckpointEntry(
                        index=point.index, config=dict(point.config),
                        status="ok", metrics=metrics,
                        attempts=measured.attempts,
                        elapsed_s=measured.elapsed_s,
                        state=_capture_states(resumables)))

    return HarnessReport(results=results, raw=raw, protocol=protocol,
                         design_description=design.describe(),
                         failures=tuple(failures), retry=retry,
                         resumed_points=resumed,
                         trace=tracer.trace() if tracer is not None
                         else None)


def _validate_resumables(resumables: Mapping[str, Any]) -> None:
    """Refuse resumables whose state cannot reach the journal.

    ``state_dict()`` values are journalled as JSON with every completed
    point; validating them eagerly at campaign start turns a crash deep
    inside :class:`~repro.measurement.checkpoint.CheckpointJournal`
    (after the first point burned real measurement time) into an
    immediate, named diagnostic.
    """
    for key, obj in resumables.items():
        state_dict = getattr(obj, "state_dict", None)
        load = getattr(obj, "load_state_dict", None)
        if not callable(state_dict) or not callable(load):
            raise MeasurementError(
                f"resumable {key!r} ({type(obj).__name__}) must "
                "implement state_dict() and load_state_dict()")
        state = state_dict()
        try:
            json.dumps(state)
        except (TypeError, ValueError) as exc:
            raise MeasurementError(
                f"resumable {key!r} ({type(obj).__name__}) produced a "
                f"state_dict() that is not JSON-serialisable and "
                f"cannot be journalled: {exc}") from exc


def _capture_states(resumables: Optional[Mapping[str, Any]]
                    ) -> Dict[str, Any]:
    if not resumables:
        return {}
    return {key: obj.state_dict() for key, obj in resumables.items()}


def _restore_states(journal: CheckpointJournal,
                    resumables: Mapping[str, Any]) -> None:
    """Load the newest journalled states into the resumable objects."""
    states = journal.last_state
    for key, obj in resumables.items():
        saved = states.get(key)
        if saved is None:
            raise MeasurementError(
                f"checkpoint has no saved state for resumable {key!r}; "
                f"saved states: {sorted(states)} — was the campaign "
                "started with different resumables?")
        obj.load_state_dict(saved)
