"""Sharded campaigns: contiguous slices that merge by concatenation.

Shard ``k`` of ``N`` owns the contiguous index slice
``[k*n//N, (k+1)*n//N)`` of an ``n``-instance campaign
(:func:`shard_bounds`); slice sizes differ by at most one.  The campaign
RNG draws its per-instance seeds in sequence, so the first ``hi`` seeds
of an ``n``-instance campaign are the seeds of an ``hi``-instance one: a
slice runs as ``iter_instances(..., seeds[:hi], start=lo)``, the same
path a resumed serial campaign takes, and its records are lines
``lo..hi`` of the serial spool.

Each shard spools through an ordinary :class:`JsonlSink` with its
checkpoint sidecar, kept on completion.  The sidecar's config key is the
*shard key* (:func:`shard_key`), which names the campaign and the slice,
so a spool is never resumed or merged into another campaign's or
another slice's place.  Resume is :func:`resume_position`, as for any
spool, and the merge concatenates the N spools' raw bytes in shard
order: the result is byte-identical to the spool a never-sharded serial
campaign writes.

Shards exist for fan-out across hosts.  On one host, ``run_shard``'s
``workers`` fans the slice over the campaign process pool, which
already survives a killed worker; a shard process that dies itself
continues with ``run_shard(resume=True)``.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.obs.telemetry import get_telemetry
from repro.pipeline.checkpoint import (
    config_fingerprint,
    fsync_directory,
    load_checkpoint,
    resume_position,
)
from repro.pipeline.sinks import JsonlSink
from repro.testbed import campaign
from repro.testbed.campaign import CampaignConfig, ProgressFn


class ShardError(ValueError):
    """A shard-layer domain failure (foreign or incomplete spools, mixed
    configs) — maps to CLI exit code 1."""


class NotShardedError(ShardError):
    """A sharded operation pointed at a spool with no usable checkpoint
    sidecar — maps to CLI exit code 2."""


def shard_bounds(n_instances: int, shards: int, shard: int) -> Tuple[int, int]:
    """The campaign index slice ``[lo, hi)`` shard ``shard`` owns."""
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    if not 0 <= shard < shards:
        raise ShardError(f"shard must be in [0, {shards}), got {shard}")
    return shard * n_instances // shards, (shard + 1) * n_instances // shards


def shard_key(config: CampaignConfig, shards: int, shard: int) -> str:
    """The checkpoint key of one shard spool: campaign and slice.

    Never equal to the bare :func:`config_fingerprint`, which is what
    the seed-partitioned shard spools of earlier versions carry.
    """
    return f"{config_fingerprint(config)}:shard{shard}-of-{shards}"


def shard_spool_path(base: Union[str, Path], shard: int, shards: int) -> Path:
    """The spool path of shard ``shard``/``shards`` for campaign ``base``.

    ``campaign.jsonl`` with 4 shards yields
    ``campaign.shard0000-of-0004.jsonl`` ... ``campaign.shard0003-of-0004.jsonl``.
    Zero-padding keeps listings sorted for fleets of up to 10k shards.
    """
    base = Path(base)
    return base.with_name(
        f"{base.stem}.shard{shard:04d}-of-{shards:04d}{base.suffix}"
    )


def _count_full_lines(spool: Path) -> int:
    """Newline-terminated lines in ``spool`` (a trailing torn write is
    not a record)."""
    count = 0
    with spool.open("rb") as fh:
        for line in fh:
            if line.endswith(b"\n"):
                count += 1
    return count


# ------------------------------------------------------------- shard runs


@dataclass
class ShardResult:
    """Outcome of one shard run."""

    shard: int
    shards: int
    spool: Path
    records: int
    resumed_at: int


def run_shard(
    config: CampaignConfig,
    base: Union[str, Path],
    shards: int,
    shard: int,
    workers: Optional[int] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> ShardResult:
    """Simulate one slice of a campaign into its own checkpointed spool.

    A spool whose checkpoint names another campaign or slice is refused,
    with or without ``resume``.  With ``resume=True`` an interrupted
    spool continues from its checkpoint — bit-identical to an
    uninterrupted run, because every instance is a pure function of
    ``(config, index, instance_seed)``.  The checkpoint sidecar is kept
    even on clean completion, so the merge can check every shard and
    re-invoking a finished shard with ``resume=True`` is a no-op.
    """
    lo, hi = shard_bounds(config.n_instances, shards, shard)
    spool = shard_spool_path(base, shard, shards)
    key = shard_key(config, shards, shard)
    checkpoint = load_checkpoint(spool)
    if checkpoint is None:
        if resume and spool.exists():
            raise NotShardedError(
                f"{spool} exists but has no usable checkpoint sidecar; it "
                "was not written by a sharded campaign, refusing to resume"
            )
    elif checkpoint.config_key != key:
        raise ShardError(
            f"{spool} belongs to a different campaign or slice "
            f"({checkpoint.config_key} != {key}); delete it to start over"
        )

    start = resume_position(spool, key) if resume else 0
    tel = get_telemetry()
    with tel.span(
        "campaign.shard",
        shard=shard, shards=shards, n=hi - lo, start=start,
    ) as span:
        sink = JsonlSink(spool, config_key=key, start=start,
                         keep_checkpoint=True)
        try:
            for record in campaign.iter_instances(
                campaign._controlled_instance,
                config,
                campaign.campaign_seeds(config.seed, hi),
                progress=progress,
                workers=workers,
                start=lo + start,
            ):
                sink.consume(record)
                span.count("records")
            sink.on_complete()
        finally:
            sink.close()
    return ShardResult(shard, shards, spool, hi - lo, start)


# ----------------------------------------------------------------- merge


@dataclass
class MergeResult:
    """Outcome of merging N shard spools back into serial order."""

    out: Path
    shards: int
    records: int
    config_key: str


def merge_shards(
    config: CampaignConfig,
    base: Union[str, Path],
    shards: int,
    out: Optional[Union[str, Path]] = None,
) -> MergeResult:
    """Concatenate N completed shard spools into one serial-order spool.

    Every shard spool must carry its checkpoint (else
    :class:`NotShardedError`), with this campaign's shard key, and be
    complete: checkpointed records == slice size == full spool lines
    (else :class:`ShardError`; nothing is written).  Lines are copied as
    raw bytes in shard order, so the merged spool is byte-identical to
    the spool a never-sharded serial campaign writes.
    """
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    base = Path(base)
    target = base if out is None else Path(out)
    spools = []
    incomplete = []
    for shard in range(shards):
        lo, hi = shard_bounds(config.n_instances, shards, shard)
        spool = shard_spool_path(base, shard, shards)
        checkpoint = load_checkpoint(spool)
        if checkpoint is None:
            raise NotShardedError(
                f"{spool} has no usable checkpoint sidecar; run shard "
                f"{shard} first"
            )
        key = shard_key(config, shards, shard)
        if checkpoint.config_key != key:
            raise ShardError(
                f"{spool} belongs to a different campaign or slice "
                f"({checkpoint.config_key} != {key})"
            )
        lines = _count_full_lines(spool)
        if not checkpoint.completed == hi - lo == lines:
            incomplete.append(
                f"shard {shard}: {lines} lines, {checkpoint.completed} "
                f"checkpointed, {hi - lo} owned"
            )
        spools.append(spool)
    if incomplete:
        raise ShardError(
            "cannot merge, incomplete shard spool(s): "
            + "; ".join(incomplete)
        )
    tel = get_telemetry()
    with tel.span("campaign.merge", shards=shards, n=config.n_instances) as span:
        tmp = target.with_name(target.name + ".tmp")
        with tmp.open("wb") as fh:
            for spool in spools:
                with spool.open("rb") as src:
                    shutil.copyfileobj(src, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        fsync_directory(target.parent)
        span.count("records", config.n_instances)
    return MergeResult(
        out=target,
        shards=shards,
        records=config.n_instances,
        config_key=config_fingerprint(config),
    )
