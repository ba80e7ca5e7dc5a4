"""Exception hierarchy for the :mod:`repro` framework.

Every error raised by the framework derives from :class:`ReproError` so that
callers can catch framework failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro framework."""


class DesignError(ReproError):
    """Invalid experiment design: bad factors, levels, or generators."""


class ConfoundingError(DesignError):
    """Invalid generator algebra in a fractional factorial design."""


class MeasurementError(ReproError):
    """A measurement could not be taken or is inconsistent."""


class ProtocolError(MeasurementError):
    """A run protocol was configured or applied incorrectly."""


class DatabaseError(ReproError):
    """Base class for MiniDB errors."""


class CatalogError(DatabaseError):
    """Unknown or duplicate table/column."""


class SqlSyntaxError(DatabaseError):
    """The SQL text could not be parsed."""


class PlanError(DatabaseError):
    """A query plan is malformed or cannot be executed."""


class TypeMismatchError(DatabaseError):
    """An expression combines incompatible column types."""


class WorkloadError(ReproError):
    """A workload or data generator was configured incorrectly."""


class ConfigError(ReproError):
    """A configuration file or property set is invalid or missing."""


class SuiteError(ReproError):
    """An experiment suite is malformed or an experiment is unknown."""


class ChartError(ReproError):
    """A chart specification is structurally invalid."""


class GuidelineViolation(ChartError):
    """A chart violates one of the tutorial's presentation guidelines.

    Raised only when linting in ``strict`` mode; the default linter
    collects violations into a report instead.
    """


class HardwareModelError(ReproError):
    """A simulated hardware component was configured inconsistently."""


class ObservabilityError(ReproError):
    """The tracing/metrics layer was used inconsistently.

    Raised by :mod:`repro.obs` for structural mistakes — closing a span
    that is not innermost, exporting a trace with open spans, registering
    one metric name under two different types — never for anything in the
    measured workload itself: observability must not perturb the
    experiment it observes.
    """


class ParallelError(MeasurementError):
    """A sharded campaign could not be specified, executed, or merged.

    Raised by :mod:`repro.parallel` for structural problems — an
    unresolvable :class:`~repro.parallel.CampaignSpec` factory,
    non-serialisable campaign parameters, conflicting shard checkpoint
    journals, or a merge that would silently lose design points.  A
    design point that merely *fails* is not a ParallelError; its failed
    :class:`~repro.measurement.checkpoint.PointOutcome` joins the
    report's ``failures`` exactly as in the sequential harness.
    """


class ServeError(ReproError):
    """The concurrent serving layer was configured or driven wrongly.

    Raised by :mod:`repro.serve` for structural mistakes — a
    closed-loop traffic generator given an arrival rate, a bounded run
    queue with a non-positive limit, an unknown load-shedding policy —
    never for an individual request that merely fails under load or
    faults: those become explicit per-request outcomes in the
    :class:`~repro.serve.ServeReport`.
    """


class FaultError(ReproError):
    """Base class for injected faults and fault-handling failures.

    The fault-injection layer (:mod:`repro.faults`) raises subclasses of
    this from hooks inside the simulated stack; the resilient harness
    (:func:`repro.measurement.run_harness`) catches them, retries
    transient ones, and records the rest as failed design points.
    """


class TransientError(FaultError):
    """A recoverable fault: retrying the operation may succeed.

    The default :class:`~repro.measurement.retry.RetryPolicy` retries
    only :class:`TransientError` subclasses; anything else fails the
    design point immediately.
    """


class TransientDiskError(TransientError):
    """A disk read/write hiccup (the classic 'disk briefly went away')."""


class ClientDisconnectError(TransientError):
    """The server dropped the client connection mid-query."""


class QueryTimeoutError(TransientError):
    """The engine aborted a query that exceeded its time budget."""


class PageCorruptionError(FaultError):
    """A buffered page failed its checksum: *not* transient.

    Retrying re-reads the same corrupt page, so the retry machinery
    treats this as a permanent failure of the design point.
    """


class RetryExhaustedError(FaultError):
    """Every attempt allowed by a retry policy failed.

    Attributes
    ----------
    attempts:
        How many attempts were made before giving up.
    last_error:
        The exception raised by the final attempt.
    """

    def __init__(self, message: str, attempts: int = 0,
                 last_error: "BaseException | None" = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class TimeoutExceededError(FaultError):
    """A measured run overran the harness's per-run timeout.

    Detected against the active clock (simulated or real) by the run
    protocol, unlike :class:`QueryTimeoutError` which the engine itself
    injects.  Retryable by default: a slow run may have been hit by an
    injected or real interference event.
    """
