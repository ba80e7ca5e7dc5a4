"""Parallel campaign execution: sharded, deterministic, resumable.

The tutorial's replication and full-factorial advice makes campaign
wall-clock the binding constraint; this package removes it without
giving up the repeatability gold standard.  A campaign is described by
a serialisable :class:`CampaignSpec`; :func:`run_campaign` shards its
design points across a worker pool where every point rebuilds its own
simulated stack from a :func:`derive_point_seed` ``(campaign_seed,
point_index)`` seed, and merges the shards back into a single
:class:`ParallelReport` — byte-identical to the sequential run, for
any ``jobs`` value.

Entry points:

- :func:`run_campaign` — the parallel twin of
  :func:`~repro.measurement.harness.run_harness`; both measure each
  point with :func:`~repro.measurement.harness.measure_point`;
- :func:`~repro.parallel.executor.pool_map` — the one worker pool,
  which ``run_campaign`` deals its shards to and E24 maps its serving
  cells over.
"""

from repro.parallel.executor import (
    DEFAULT_START_METHOD,
    default_jobs,
    execute_point,
    run_campaign,
    shard_points,
)
from repro.parallel.merge import (
    ParallelReport,
    PointOutcome,
    ShardSummary,
    entry_from_outcome,
    merge_outcomes,
    outcome_from_entry,
    stitch_traces,
)
from repro.parallel.spec import (
    CampaignFactory,
    CampaignSpec,
    CampaignStack,
    derive_point_seed,
)

__all__ = [
    "CampaignFactory",
    "CampaignSpec",
    "CampaignStack",
    "DEFAULT_START_METHOD",
    "ParallelReport",
    "PointOutcome",
    "ShardSummary",
    "default_jobs",
    "derive_point_seed",
    "entry_from_outcome",
    "execute_point",
    "merge_outcomes",
    "outcome_from_entry",
    "run_campaign",
    "shard_points",
    "stitch_traces",
]
