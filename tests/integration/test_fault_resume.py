"""Kill-and-resume integration: resumed campaigns are byte-identical.

The repeatability acceptance test for the resilient harness: a full
2^3 factorial campaign over MiniDB runs under injected faults with a
checkpoint journal; the campaign is killed partway (a crash the harness
does *not* catch), restarted in a "fresh process" (new clock, new
injector, new workload), and must reproduce the uninterrupted
campaign's :class:`~repro.measurement.results.ResultSet` byte for byte.
"""

import pytest

from repro.core import TwoLevelFactorialDesign
from repro.experiments.e21_fault_tolerance import (
    FaultyQueryWorkload,
    make_space,
)
from repro.faults import FaultPlan
from repro.measurement import (
    LAST_OF_THREE_HOT,
    RetryPolicy,
    VirtualClock,
    run_harness,
)
from repro.workloads import generate_tpch, tpch_query

SF = 0.002
SEED = 42
FAULT_P = 0.2


@pytest.fixture(scope="module")
def database():
    return generate_tpch(sf=SF, seed=SEED)


def plan():
    return FaultPlan.uniform(FAULT_P, seed=SEED, sites=("client.run",))


def campaign(database, checkpoint=None, max_attempts=3, die_at=None):
    """One 'process lifetime': fresh clock, injector and workload.

    ``die_at`` simulates a kill: the workload raises KeyboardInterrupt
    when asked to set up that design point, which the harness must NOT
    catch (it is not a measurement failure).
    """
    clock = VirtualClock()
    injector = plan().injector()
    sql = tpch_query(1)
    workload = FaultyQueryWorkload(database, sql, clock, injector)
    if die_at is not None:
        inner_setup = workload.setup
        points_started = []

        def crashing_setup(config):
            points_started.append(config)
            if len(points_started) == die_at:
                raise KeyboardInterrupt("simulated kill -9")
            inner_setup(config)

        workload.setup = crashing_setup
    return run_harness(
        TwoLevelFactorialDesign(make_space()), workload,
        LAST_OF_THREE_HOT, clock=clock,
        retry=RetryPolicy(max_attempts=max_attempts, backoff_base_s=0.05),
        on_error="record", name="resume",
        checkpoint=checkpoint,
        resumables=({"faults": injector, "clock": clock}
                    if checkpoint else None))


class TestAcceptance:
    """Every point measured or explicitly failed — never dropped."""

    @pytest.fixture(scope="class")
    def report(self, database):
        return campaign(database)

    def test_all_points_accounted(self, report):
        assert report.n_points == 8
        assert report.n_measured + report.n_failed == 8

    def test_failures_are_explicit(self, report):
        for failed in report.failures:
            assert failed.error_type == "RetryExhaustedError"
            assert failed.attempts == 3
            assert failed.config  # the point is identifiable

    def test_documentation_mentions_the_discipline(self, report):
        assert "3 attempts per point" in report.documentation()


class TestKillAndResume:
    def test_resumed_equals_uninterrupted(self, database, tmp_path):
        uninterrupted = campaign(database)

        journal = tmp_path / "campaign.journal"
        with pytest.raises(KeyboardInterrupt):
            campaign(database, checkpoint=journal, die_at=5)
        completed = len(journal.read_text().splitlines())
        assert 0 < completed < 8  # genuinely partial

        resumed = campaign(database, checkpoint=journal)
        assert resumed.resumed_points == completed
        assert resumed.results.to_csv() == \
            uninterrupted.results.to_csv()
        assert resumed.failures == uninterrupted.failures

    def test_resumed_counts_every_points_attempts(self, database,
                                                  tmp_path):
        uninterrupted = campaign(database)
        journal = tmp_path / "campaign.journal"
        with pytest.raises(KeyboardInterrupt):
            campaign(database, checkpoint=journal, die_at=5)
        resumed = campaign(database, checkpoint=journal)
        assert uninterrupted.total_retries == 7
        assert resumed.total_retries == uninterrupted.total_retries
        clause = "7 retried attempt(s) across the campaign"
        assert clause in uninterrupted.documentation()
        assert clause in resumed.documentation()

    def test_double_resume_is_stable(self, database, tmp_path):
        """Resuming a finished campaign replays everything, identically."""
        journal = tmp_path / "campaign.journal"
        first = campaign(database, checkpoint=journal)
        replay = campaign(database, checkpoint=journal)
        assert replay.resumed_points == 8
        assert replay.results.to_csv() == first.results.to_csv()

    def test_retry_budget_changes_survival(self, database):
        strict = campaign(database, max_attempts=1)
        generous = campaign(database, max_attempts=5)
        assert generous.survival_rate >= strict.survival_rate
        assert strict.n_failed > 0  # p=0.2 with no retries must bite
