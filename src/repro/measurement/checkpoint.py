"""Checkpoint journals: crash-safe progress for measurement campaigns.

The tutorial's repeatability gold standard is the one-command campaign —
but a campaign that dies at design point 7 of 8 and restarts from
scratch is neither repeatable nor respectful of the machine week it
burned.  A :class:`CheckpointJournal` is an append-only JSON-lines file:
one line per *completed* design point (measured or explicitly failed),
flushed as soon as the point finishes, so an interrupted campaign
resumes from the last completed point.

Each line is a :class:`PointOutcome`, the one record of a design point:
:func:`~repro.measurement.harness.measure_point` returns it, a
:func:`~repro.parallel.run_campaign` worker hands it back,
:attr:`~repro.measurement.harness.HarnessReport.failures` lists the
failed ones, and a point replayed from a journal is the same kind of
object as the point measured.  Its ``state`` mapping carries the
``state_dict()``s of resumable components such as
:class:`~repro.faults.FaultInjector` and
:class:`~repro.measurement.noise.NoiseModel`, so the resumed campaign
continues the *same* random streams and reproduces the uninterrupted
campaign byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import MeasurementError, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.measurement.protocol import ProtocolResult
    from repro.obs.span import Span, SpanEvent

#: Journal format version; bumped on incompatible layout changes.
JOURNAL_VERSION = 1


@dataclass(frozen=True)
class PointOutcome:
    """One design point's result: measured, failed, or replayed.

    The fields up to and including ``state`` are the journal line.
    ``state`` snapshots resumable components, which only a checkpointed
    run does, so it takes no part in equality; nor do the fields after
    it, which never reach the journal.  A point replayed from a journal
    thus equals the point as measured.  ``seed`` is the per-point seed a
    campaign worker built its stack from, ``raw`` the protocol's full
    timings, ``spans`` and ``orphan_events`` the point's private trace
    (point-local ids and timestamps, which the merge re-ids and
    rebases), ``resumed`` marks a replay, and ``error`` is the exception
    that stopped a failed point.
    """

    index: int
    config: Mapping[str, Any]
    status: str                      # "ok" | "failed"
    metrics: Mapping[str, float] = field(default_factory=dict)
    attempts: int = 1
    elapsed_s: float = 0.0
    error_type: str = ""
    error_message: str = ""
    state: Mapping[str, Any] = field(default_factory=dict, compare=False)
    seed: int = field(default=0, compare=False)
    raw: Optional[ProtocolResult] = field(default=None, compare=False)
    spans: Tuple[Span, ...] = field(default=(), compare=False)
    orphan_events: Tuple[SpanEvent, ...] = field(default=(),
                                                 compare=False)
    resumed: bool = field(default=False, compare=False)
    error: Optional[ReproError] = field(default=None, compare=False,
                                        repr=False)

    STATUSES = ("ok", "failed")

    def __post_init__(self):
        if self.status not in self.STATUSES:
            raise MeasurementError(
                f"bad point status {self.status!r}; "
                f"expected one of {list(self.STATUSES)}")
        if self.status == "failed" and not self.error_type:
            raise MeasurementError(
                "a failed point must name its error type")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def format(self) -> str:
        """``point 1 {...}: RetryExhaustedError after 3 attempt(s) (...)``."""
        ending = "ok" if self.ok else self.error_type
        line = (f"point {self.index} {dict(self.config)}: {ending} "
                f"after {self.attempts} attempt(s)")
        return line if self.ok else f"{line} ({self.error_message})"

    def to_json(self) -> str:
        payload = {
            "v": JOURNAL_VERSION,
            "index": self.index,
            "config": dict(self.config),
            "status": self.status,
            "metrics": dict(self.metrics),
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }
        if self.error_type:
            payload["error_type"] = self.error_type
            payload["error_message"] = self.error_message
        if self.state:
            payload["state"] = dict(self.state)
        # No sort_keys: metric insertion order must survive the round
        # trip so a replayed campaign rebuilds a byte-identical CSV.
        return json.dumps(payload)

    @classmethod
    def from_json(cls, line: str) -> "PointOutcome":
        """The point a journal line records, marked as a replay."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MeasurementError(
                f"corrupt checkpoint line: {line[:80]!r} ({exc})") from exc
        version = payload.get("v")
        if version != JOURNAL_VERSION:
            raise MeasurementError(
                f"checkpoint written by journal version {version}, "
                f"this code reads version {JOURNAL_VERSION}")
        return cls(
            index=int(payload["index"]),
            config=dict(payload["config"]),
            status=str(payload["status"]),
            metrics={k: float(v)
                     for k, v in payload.get("metrics", {}).items()},
            attempts=int(payload.get("attempts", 1)),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            error_type=str(payload.get("error_type", "")),
            error_message=str(payload.get("error_message", "")),
            state=dict(payload.get("state", {})),
            resumed=True)


class CheckpointJournal:
    """Append-only journal of completed design points.

    Opening an existing file loads its entries (the resume path);
    :meth:`append` writes and flushes one line per completed point.
    """

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self._entries: List[PointOutcome] = []
        self._by_index: Dict[int, PointOutcome] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            entry = PointOutcome.from_json(line)
            if entry.index in self._by_index:
                raise MeasurementError(
                    f"checkpoint {self.path} journals design point "
                    f"{entry.index} twice")
            self._entries.append(entry)
            self._by_index[entry.index] = entry

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[PointOutcome]:
        return list(self._entries)

    def lookup(self, index: int,
               config: Mapping[str, Any]) -> Optional[PointOutcome]:
        """The journalled entry for a design point, verified.

        Returns ``None`` when the point has not been completed yet, and
        refuses (with a clear diagnostic) a journal whose recorded
        configuration differs from the design's — a checkpoint from a
        different campaign must never silently contribute points.  The
        entry returned carries the design's *config* itself, not its
        JSON round trip, so the replay equals the measured point.
        """
        entry = self._by_index.get(index)
        if entry is None:
            return None
        if dict(entry.config) != _json_roundtrip(config):
            raise MeasurementError(
                f"checkpoint {self.path} was written for a different "
                f"campaign: design point {index} is {dict(config)!r} "
                f"here but {dict(entry.config)!r} in the journal")
        return replace(entry, config=dict(config))

    def append(self, entry: PointOutcome) -> None:
        """Journal one completed point (flushed before returning)."""
        if entry.index in self._by_index:
            raise MeasurementError(
                f"design point {entry.index} already journalled in "
                f"{self.path}")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(entry.to_json() + "\n")
            fh.flush()
        self._entries.append(entry)
        self._by_index[entry.index] = entry

    @property
    def last_state(self) -> Mapping[str, Any]:
        """The resumable-component state after the newest entry."""
        return self._entries[-1].state if self._entries else {}


def _json_roundtrip(config: Mapping[str, Any]) -> Dict[str, Any]:
    """A config as it looks after a JSON round trip (for comparison)."""
    return json.loads(json.dumps(dict(config)))
