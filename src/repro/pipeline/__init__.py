"""Streaming session pipeline: constant-memory record flow.

The paper's deployment model (Section 6) is an always-on measurement
loop: sessions arrive one at a time, are featurized, diagnosed, and
logged — nothing ever holds a whole campaign in RAM.  This package makes
that the repo's execution model.  Records flow from a source (any
iterable) through stages, each an ``Iterator -> Iterator`` transform::

    source -> Diagnose -> Sink

A sink passes items through, so it can sit anywhere in the chain.

Example — spool a campaign to disk while diagnosing it, resumably::

    from repro.pipeline import (
        CampaignSource, DiagnoseStage, JsonlSink, Pipeline,
    )
    from repro.pipeline.checkpoint import config_fingerprint, resume_position

    key = config_fingerprint(config)
    start = resume_position("campaign.jsonl", key)     # 0 on a fresh run
    pipeline = Pipeline(
        CampaignSource(config, start=start),
        JsonlSink("campaign.jsonl", config_key=key, start=start),
        DiagnoseStage(analyzer, chunk=32),
    )
    for diagnosed in pipeline:
        print(diagnosed.report.summary())

The stream is bit-identical to the batch path (``run_campaign`` +
``diagnose_batch``) for the same config — serial or parallel — which the
equivalence tests pin down.
"""

from repro.core.dataset import chunked
from repro.pipeline.checkpoint import (
    Checkpoint,
    checkpoint_path,
    config_fingerprint,
    durable_write,
    fsync_directory,
    load_checkpoint,
    resume_position,
    save_checkpoint,
)
from repro.pipeline.diagnose import Diagnosed, DiagnoseStage
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.records import (
    record_from_dict,
    record_from_json,
    record_to_dict,
    record_to_json,
)
from repro.pipeline.shard import (
    MergeResult,
    NotShardedError,
    ShardError,
    ShardResult,
    merge_shards,
    run_shard,
    shard_bounds,
    shard_key,
    shard_spool_path,
)
from repro.pipeline.sinks import CountSink, DatasetSink, JsonlSink
from repro.pipeline.sources import CampaignSource, JsonlSource, SpoolError
from repro.pipeline.stages import Sink, Stage

__all__ = [
    "CampaignSource",
    "Checkpoint",
    "CountSink",
    "DatasetSink",
    "Diagnosed",
    "DiagnoseStage",
    "JsonlSink",
    "JsonlSource",
    "MergeResult",
    "NotShardedError",
    "Pipeline",
    "ShardError",
    "ShardResult",
    "Sink",
    "SpoolError",
    "Stage",
    "checkpoint_path",
    "chunked",
    "config_fingerprint",
    "durable_write",
    "fsync_directory",
    "load_checkpoint",
    "merge_shards",
    "record_from_dict",
    "record_from_json",
    "record_to_dict",
    "record_to_json",
    "resume_position",
    "run_shard",
    "save_checkpoint",
    "shard_bounds",
    "shard_key",
    "shard_spool_path",
]
