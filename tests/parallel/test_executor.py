"""Tests for the sharded executor: sharding, edge cases, resume."""

import pytest

from repro.core import FactorSpace, FullFactorialDesign, two_level
from repro.core.designs import Design
from repro.errors import ParallelError, WorkloadError
from repro.measurement import (
    NoiseModel,
    PickRule,
    RunProtocol,
    State,
    VirtualClock,
    Workload,
)
from repro.measurement.checkpoint import CheckpointJournal
from repro.parallel import (
    CampaignSpec,
    CampaignStack,
    execute_point,
    run_campaign,
    shard_points,
)

PROTOCOL = RunProtocol(state=State.HOT, repetitions=2,
                       pick=PickRule.LAST, warmups=1)


def _space():
    return FactorSpace([two_level("f1", "low", "high"),
                        two_level("f2", "low", "high")])


class FlakyWorkload(Workload):
    """Synthetic virtual-clock workload; selected configs misbehave.

    ``fail_on`` configs raise a (non-transient) :class:`WorkloadError`
    every attempt; ``explode_on`` configs raise a plain ``ValueError``
    — an infrastructure crash the executor must *not* swallow.
    Configs are keyed ``"<f1>-<f2>"``.
    """

    def __init__(self, clock, noise, fail_on=(), explode_on=()):
        self.clock = clock
        self.noise = noise
        self.fail_on = set(fail_on)
        self.explode_on = set(explode_on)

    def setup(self, config):
        self.key = f"{config['f1']}-{config['f2']}"

    def run(self):
        if self.key in self.explode_on:
            raise ValueError(f"infrastructure crash at {self.key}")
        if self.key in self.fail_on:
            raise WorkloadError(f"broken config {self.key}")
        self.clock.advance(cpu_seconds=self.noise.perturb(0.003))

    def make_cold(self):
        pass


class EmptyDesign(Design):
    def __len__(self):
        return 0

    def points(self):
        return iter(())


def build_flaky(params, seed):
    clock = VirtualClock()
    noise = NoiseModel(seed=seed, relative_std=0.05)
    workload = FlakyWorkload(clock, noise,
                             fail_on=params.get("fail_on", ()),
                             explode_on=params.get("explode_on", ()))
    return CampaignStack(design=FullFactorialDesign(_space()),
                         workload=workload, protocol=PROTOCOL,
                         clock=clock)


def build_empty(params, seed):
    clock = VirtualClock()
    workload = FlakyWorkload(clock, NoiseModel(seed=seed))
    return CampaignStack(design=EmptyDesign(_space()),
                         workload=workload, protocol=PROTOCOL,
                         clock=clock)


def spec_for(**params):
    return CampaignSpec(
        factory="tests.parallel.test_executor:build_flaky",
        params=params, seed=5, name="flaky")


def index_of(spec, key):
    """Design index of the config keyed ``"<f1>-<f2>"``."""
    for point in spec.build().design.points():
        if f"{point.config['f1']}-{point.config['f2']}" == key:
            return point.index
    raise AssertionError(key)


class TestShardPoints:
    def test_round_robin_layout(self):
        assert shard_points([0, 1, 2, 3, 4, 5, 6], 3) == \
            [(0, 3, 6), (1, 4), (2, 5)]

    def test_single_shard(self):
        assert shard_points([3, 1, 2], 1) == [(3, 1, 2)]

    def test_more_jobs_than_points_drops_empty_shards(self):
        assert shard_points([0, 1], 8) == [(0,), (1,)]

    def test_no_points_no_shards(self):
        assert shard_points([], 4) == []

    def test_jobs_must_be_positive(self):
        with pytest.raises(ParallelError, match="jobs"):
            shard_points([0], 0)


class TestExecutePoint:
    def test_pure_function_of_spec_and_index(self):
        spec = spec_for()
        first = execute_point(spec, 2)
        second = execute_point(spec, 2)
        assert first.metrics == second.metrics
        assert first.seed == second.seed == spec.point_seed(2)
        assert first.ok

    def test_unknown_index_is_refused(self):
        with pytest.raises(ParallelError, match="no point"):
            execute_point(spec_for(), 99)

    def test_failure_becomes_an_outcome_not_an_exception(self):
        spec = spec_for(fail_on=["high-high"])
        outcome = execute_point(spec, index_of(spec, "high-high"))
        assert not outcome.ok
        assert outcome.error_type == "WorkloadError"
        assert "high-high" in outcome.error_message


class TestRunCampaignEdgeCases:
    def test_empty_design(self):
        spec = CampaignSpec(
            factory="tests.parallel.test_executor:build_empty",
            name="empty")
        report = run_campaign(spec, jobs=4)
        assert report.n_points == 0
        assert report.shards == ()
        assert "no shards executed" in report.parallel_documentation()

    def test_more_jobs_than_points(self):
        spec = spec_for()
        wide = run_campaign(spec, jobs=16)
        narrow = run_campaign(spec, jobs=1)
        assert wide.jobs == 16
        assert len(wide.shards) == 4  # one shard per point
        assert wide.documentation() == narrow.documentation()
        assert wide.results.to_csv() == narrow.results.to_csv()

    def test_jobs_must_be_positive(self):
        with pytest.raises(ParallelError, match="jobs"):
            run_campaign(spec_for(), jobs=0)

    def test_record_keeps_failed_points(self):
        spec = spec_for(fail_on=["high-low", "high-high"])
        report = run_campaign(spec, jobs=3, on_error="record")
        assert report.n_failed == 2
        assert report.n_measured == 2
        assert all(f.error_type == "WorkloadError"
                   for f in report.failures)
        solo = run_campaign(spec, jobs=1, on_error="record")
        assert solo.documentation() == report.documentation()

    def test_raise_names_the_lowest_failed_index(self):
        spec = spec_for(fail_on=["high-low", "high-high"])
        lowest = min(index_of(spec, "high-low"),
                     index_of(spec, "high-high"))
        for jobs in (1, 4):
            with pytest.raises(ParallelError,
                               match=f"design point {lowest} "):
                run_campaign(spec, jobs=jobs, on_error="raise")

    def test_infrastructure_errors_propagate(self):
        spec = spec_for(explode_on=["low-low"])
        with pytest.raises(ValueError, match="infrastructure crash"):
            run_campaign(spec, jobs=1)


class TestCheckpointResume:
    def test_resume_across_a_different_jobs_value(self, tmp_path):
        checkpoint = tmp_path / "campaign.journal"
        # An interrupted sequential run: the last point (high-high)
        # crashes the process after three points were journalled.
        broken = spec_for(explode_on=["high-high"])
        with pytest.raises(ValueError):
            run_campaign(broken, jobs=1, checkpoint=checkpoint)
        shard0 = tmp_path / "campaign.journal.shard0"
        assert shard0.exists()
        assert len(CheckpointJournal(shard0).entries) == 3

        # Resume the fixed campaign at a *different* jobs value.
        fixed = spec_for()
        resumed = run_campaign(fixed, jobs=3, checkpoint=checkpoint)
        assert resumed.resumed_points == 3
        assert resumed.n_points == 4
        # Journalled metrics survive, so results match a fresh run.
        fresh = run_campaign(fixed, jobs=2)
        assert resumed.results.to_csv() == fresh.results.to_csv()
        # Completion folded every shard journal into the main path.
        assert checkpoint.exists()
        assert not list(tmp_path.glob("campaign.journal.shard*"))

        # A further run replays everything.
        replay = run_campaign(fixed, jobs=4, checkpoint=checkpoint)
        assert replay.resumed_points == 4
        assert replay.results.to_csv() == fresh.results.to_csv()

    def test_conflicting_journals_are_refused(self, tmp_path):
        checkpoint = tmp_path / "campaign.journal"
        spec = spec_for()
        run_campaign(spec, jobs=2, checkpoint=checkpoint)
        # A second campaign's shard journal with a different record
        # for point 0 must not silently contribute.
        first_line = checkpoint.read_text().splitlines()[0]
        conflicting = first_line.replace('"real_ms": ', '"real_ms": 9')
        assert conflicting != first_line
        (tmp_path / "campaign.journal.shard7").write_text(
            conflicting + "\n")
        with pytest.raises(ParallelError, match="conflicting"):
            run_campaign(spec, jobs=2, checkpoint=checkpoint)

    def test_journal_outside_the_design_is_refused(self, tmp_path):
        checkpoint = tmp_path / "campaign.journal"
        spec = spec_for()
        report = run_campaign(spec, jobs=1, checkpoint=checkpoint)
        assert report.n_points == 4
        bumped = checkpoint.read_text().replace(
            '"index": 0', '"index": 99')
        checkpoint.write_text(bumped)
        with pytest.raises(ParallelError, match="outside this design"):
            run_campaign(spec, jobs=1, checkpoint=checkpoint)

    def test_aborted_raise_run_keeps_completed_points(self, tmp_path):
        checkpoint = tmp_path / "campaign.journal"
        spec = spec_for(fail_on=["high-high"])  # the last point
        with pytest.raises(ParallelError, match="journalled"):
            run_campaign(spec, jobs=1, checkpoint=checkpoint,
                         on_error="raise")
        shard0 = tmp_path / "campaign.journal.shard0"
        # The three good points are journalled; the failure is not
        # (a re-run must retry it).
        entries = CheckpointJournal(shard0).entries
        assert len(entries) == 3
        assert all(entry.status == "ok" for entry in entries)

