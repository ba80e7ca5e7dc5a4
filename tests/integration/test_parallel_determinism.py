"""The executor's headline guarantee: ``jobs=N`` == ``jobs=1``, bytes.

The tutorial's repeatability bar is byte-identical re-runs; sharding a
campaign across worker processes must not lower it.  These tests pin
the contract end to end on real campaigns: identical methodology
paragraphs, identical result CSVs, identical canonical trace JSONL —
for every ``jobs`` value — with the shard layout visible only through
the explicitly layout-dependent surfaces.
"""

import pytest

from repro.experiments.e07_design_sizes import run_e07_campaign
from repro.obs.export import to_jsonl
from repro.parallel import CampaignSpec, run_campaign

JOBS = 4


@pytest.fixture(scope="module")
def e07_pair():
    sequential = run_e07_campaign(kind="twolevel", k=3, seed=7,
                                  jobs=1, trace=True)
    parallel = run_e07_campaign(kind="twolevel", k=3, seed=7,
                                jobs=JOBS, trace=True)
    return sequential, parallel


class TestByteIdentity:
    def test_methodology_paragraph(self, e07_pair):
        sequential, parallel = e07_pair
        assert parallel.documentation() == sequential.documentation()

    def test_result_csv(self, e07_pair):
        sequential, parallel = e07_pair
        assert parallel.results.to_csv() == sequential.results.to_csv()

    def test_canonical_trace_jsonl(self, e07_pair):
        sequential, parallel = e07_pair
        assert to_jsonl(parallel.trace) == to_jsonl(sequential.trace)

    def test_raw_timings(self, e07_pair):
        sequential, parallel = e07_pair
        assert set(parallel.raw) == set(sequential.raw)
        for index in parallel.raw:
            assert parallel.raw[index].reals == \
                sequential.raw[index].reals


class TestLayoutOnlyWhereDeclared:
    def test_parallel_documentation_names_the_layout(self, e07_pair):
        sequential, parallel = e07_pair
        assert f"jobs={JOBS}" in parallel.parallel_documentation()
        assert "jobs=1" in sequential.parallel_documentation()

    def test_shard_counts_cover_the_design(self, e07_pair):
        __, parallel = e07_pair
        indices = sorted(i for summary in parallel.shards
                         for i in summary.indices)
        assert indices == list(range(parallel.n_points))
        assert len(parallel.shards) == min(JOBS, parallel.n_points)

    def test_sharded_trace_annotates_points(self, e07_pair):
        __, parallel = e07_pair
        point_spans = [s for s in parallel.sharded_trace.spans
                       if s.name.startswith("harness.point[")]
        assert point_spans
        assert all("shard" in span.attributes for span in point_spans)
        root = parallel.sharded_trace.spans[0]
        assert root.name == "harness.campaign"
        assert root.attributes["jobs"] == JOBS
        # ... and the canonical trace carries no layout metadata.
        canonical_roots = [s for s in parallel.trace.spans
                           if s.parent_id is None]
        assert "jobs" not in canonical_roots[0].attributes


class TestSeedSensitivity:
    def test_campaign_seed_actually_matters(self):
        a = run_e07_campaign(kind="twolevel", k=3, seed=7)
        b = run_e07_campaign(kind="twolevel", k=3, seed=8)
        assert a.results.to_csv() != b.results.to_csv()


class TestExperimentsThroughTheExecutor:
    def test_e07_fractional_campaign_is_jobs_invariant(self):
        solo = run_e07_campaign(kind="fractional", k=4, jobs=1)
        sharded = run_e07_campaign(kind="fractional", k=4, jobs=3)
        assert solo.documentation() == sharded.documentation()
        assert solo.results.to_csv() == sharded.results.to_csv()
        assert solo.n_points == 8  # 2^(4-1)


class TestResumeDeterminism:
    def test_trace_checkpoint_resume_keeps_results(self, tmp_path):
        spec = CampaignSpec(
            factory="repro.experiments.e07_design_sizes:"
                    "build_e07_campaign",
            params={"kind": "twolevel", "k": 3}, seed=7, name="e07")
        checkpoint = tmp_path / "e07.journal"
        first = run_campaign(spec, jobs=2, checkpoint=checkpoint)
        again = run_campaign(spec, jobs=3, checkpoint=checkpoint)
        assert again.resumed_points == first.n_points
        assert again.results.to_csv() == first.results.to_csv()
