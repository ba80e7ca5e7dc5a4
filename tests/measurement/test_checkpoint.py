"""Tests for checkpoint journals: round-trips, refusals, diagnostics."""

import json

import pytest

from repro.errors import MeasurementError
from repro.measurement import CheckpointJournal, PointOutcome


def ok_entry(index=0, **overrides):
    fields = dict(index=index, config={"buffer": "large", "mode": "column"},
                  status="ok", metrics={"real_ms": 12.5},
                  attempts=2, elapsed_s=0.75,
                  state={"faults": {"counts": [3]}})
    fields.update(overrides)
    return PointOutcome(**fields)


def failed_entry(index=1):
    return PointOutcome(
        index=index, config={"buffer": "small", "mode": "tuple"},
        status="failed", attempts=3, elapsed_s=1.5,
        error_type="RetryExhaustedError",
        error_message="run failed 3 attempt(s)")


class TestPointOutcome:
    def test_rejects_bad_status(self):
        with pytest.raises(MeasurementError, match="status"):
            ok_entry(status="maybe")

    def test_failed_entry_must_name_error(self):
        with pytest.raises(MeasurementError, match="error type"):
            ok_entry(status="failed")

    def test_json_round_trip_ok(self):
        entry = ok_entry()
        back = PointOutcome.from_json(entry.to_json())
        assert back == entry
        assert back.ok

    def test_json_round_trip_failed(self):
        entry = failed_entry()
        back = PointOutcome.from_json(entry.to_json())
        assert back == entry
        assert not back.ok

    def test_corrupt_line_diagnostic(self):
        with pytest.raises(MeasurementError, match="corrupt checkpoint"):
            PointOutcome.from_json("{not json")

    def test_version_mismatch_refused(self):
        payload = json.loads(ok_entry().to_json())
        payload["v"] = 999
        with pytest.raises(MeasurementError, match="journal version"):
            PointOutcome.from_json(json.dumps(payload))


#: Journal lines exactly as the code before the one-record change wrote
#: them: an ok point with resumable state, and a failed point.
PARENT_OK_LINE = (
    '{"v": 1, "index": 3, "config": {"buffer": "small", "tuned": "yes", '
    '"build": "dbg"}, "status": "ok", "metrics": {"real_ms": 41.25, '
    '"user_ms": 40.5, "sys_ms": 0.75, "faults_injected": 1.0}, '
    '"attempts": 2, "elapsed_s": 0.3125, "state": {"faults": {"counts": '
    '{"client.run": 7}, "n_injected": 1}, "clock": {"cpu_s": 0.5, '
    '"idle_s": 0.05}}}')
PARENT_FAILED_LINE = (
    '{"v": 1, "index": 5, "config": {"buffer": "large", "tuned": "no", '
    '"build": "opt"}, "status": "failed", "metrics": {}, "attempts": 3, '
    '"elapsed_s": 0.875, "error_type": "RetryExhaustedError", '
    '"error_message": "client.run failed after 3 attempt(s): '
    'ClientDisconnectError"}')


class TestParentJournalLines:
    """Journals written before the one record still resume."""

    def test_ok_line_round_trips_byte_for_byte(self):
        outcome = PointOutcome.from_json(PARENT_OK_LINE)
        assert outcome.to_json() == PARENT_OK_LINE
        assert outcome.ok and outcome.resumed
        assert list(outcome.metrics) == ["real_ms", "user_ms", "sys_ms",
                                         "faults_injected"]
        assert outcome.state["clock"] == {"cpu_s": 0.5, "idle_s": 0.05}

    def test_failed_line_round_trips_byte_for_byte(self):
        outcome = PointOutcome.from_json(PARENT_FAILED_LINE)
        assert outcome.to_json() == PARENT_FAILED_LINE
        assert not outcome.ok and outcome.resumed
        assert outcome.format() == (
            "point 5 {'buffer': 'large', 'tuned': 'no', 'build': 'opt'}: "
            "RetryExhaustedError after 3 attempt(s) (client.run failed "
            "after 3 attempt(s): ClientDisconnectError)")


class TestCheckpointJournal:
    def test_append_then_reopen(self, tmp_path):
        path = tmp_path / "camp.journal"
        journal = CheckpointJournal(path)
        assert len(journal) == 0
        journal.append(ok_entry(0))
        journal.append(failed_entry(1))

        reopened = CheckpointJournal(path)
        assert len(reopened) == 2
        assert reopened.entries == journal.entries
        assert reopened.last_state == {}  # failed_entry carries no state
        assert reopened.entries[0].state == {"faults": {"counts": [3]}}

    def test_duplicate_index_refused_on_append(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "camp.journal")
        journal.append(ok_entry(0))
        with pytest.raises(MeasurementError, match="already journalled"):
            journal.append(ok_entry(0))

    def test_duplicate_index_refused_on_load(self, tmp_path):
        path = tmp_path / "camp.journal"
        line = ok_entry(0).to_json()
        path.write_text(line + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(MeasurementError, match="twice"):
            CheckpointJournal(path)

    def test_lookup_verifies_config(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "camp.journal")
        entry = ok_entry(0)
        journal.append(entry)
        assert journal.lookup(0, entry.config) == entry
        assert journal.lookup(7, {"any": "thing"}) is None
        with pytest.raises(MeasurementError, match="different campaign"):
            journal.lookup(0, {"buffer": "small", "mode": "column"})

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "camp.journal"
        path.write_text(ok_entry(0).to_json() + "\n\n", encoding="utf-8")
        assert len(CheckpointJournal(path)) == 1

    def test_last_state_tracks_newest_entry(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "camp.journal")
        journal.append(ok_entry(0, state={"noise": {"seed": 1}}))
        journal.append(ok_entry(1, state={"noise": {"seed": 2}}))
        assert journal.last_state == {"noise": {"seed": 2}}
