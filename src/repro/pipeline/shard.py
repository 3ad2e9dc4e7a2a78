"""Sharded campaigns: seed-partitioned spools that merge bit-identically.

One campaign's instance space is partitioned into N shards by the
per-instance *seed values* the campaign RNG draws up front
(:func:`repro.testbed.campaign.shard_partition`): shard ``k`` owns every
index whose seed satisfies ``seed % N == k``.  The partition is a pure
function of ``(config.seed, n_instances, shards)``, so independent
processes — or hosts — compute it identically with no coordination.

Each shard spools its records as ordinary ``repro-record-v1`` JSONL with
the same atomic checkpoint sidecar a serial campaign uses, plus a
*shard manifest* sidecar (``repro-shard-manifest-v1``) recording exactly
which absolute campaign indices the spool's lines correspond to, in
order.  That manifest is what makes the merge exact: line ``j`` of shard
``k``'s spool *is* campaign instance ``manifest.indices[j]``, so
:func:`merge_shards` reconstructs the serial record order byte for byte
— every line is copied as raw bytes, never re-parsed or re-serialized.

Shards exist for fan-out across hosts.  On one host, ``run_shard``'s
``workers`` fans the shard's instances over the campaign process pool,
which already survives a killed worker; a shard process that dies
itself continues with ``run_shard(resume=True)``.
"""

from __future__ import annotations

import heapq
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.telemetry import get_telemetry
from repro.pipeline.checkpoint import (
    config_fingerprint,
    durable_write,
    fsync_directory,
    load_checkpoint,
    resume_position,
)
from repro.pipeline.sinks import JsonlSink
from repro.schemas import SHARD_MANIFEST_V1
from repro.testbed.campaign import (
    CampaignConfig,
    ProgressFn,
    campaign_seeds,
    iter_campaign_pairs,
    shard_partition,
)

MANIFEST_FORMAT = SHARD_MANIFEST_V1


class ShardError(ValueError):
    """A shard-layer domain failure (mismatched manifests, incomplete
    spools, foreign configs) — maps to CLI exit code 1."""


class NotShardedError(ShardError):
    """A sharded operation pointed at a spool that was never sharded
    (no manifest sidecar) — maps to CLI exit code 2."""


# ------------------------------------------------------------ manifests


@dataclass(frozen=True)
class ShardManifest:
    """Which campaign indices one shard spool owns, in spool-line order.

    ``indices[j]`` is the absolute campaign index of spool line ``j``;
    the list is ascending (a property of :func:`shard_partition`) and
    the manifests of all N shards partition ``range(n_instances)``.
    """

    config_key: str
    campaign_seed: int
    n_instances: int
    shards: int
    shard: int
    indices: Tuple[int, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": MANIFEST_FORMAT,
            "config_key": self.config_key,
            "campaign_seed": self.campaign_seed,
            "n_instances": self.n_instances,
            "shards": self.shards,
            "shard": self.shard,
            "indices": list(self.indices),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ShardManifest":
        if payload.get("format") != MANIFEST_FORMAT:
            raise ShardError("not a repro shard-manifest payload")
        return cls(
            config_key=str(payload["config_key"]),
            campaign_seed=int(payload["campaign_seed"]),  # type: ignore[arg-type]
            n_instances=int(payload["n_instances"]),  # type: ignore[arg-type]
            shards=int(payload["shards"]),  # type: ignore[arg-type]
            shard=int(payload["shard"]),  # type: ignore[arg-type]
            indices=tuple(int(i) for i in payload["indices"]),  # type: ignore[union-attr]
        )


def manifest_path(spool: Union[str, Path]) -> Path:
    """The manifest sidecar path for a shard spool."""
    spool = Path(spool)
    return spool.with_name(spool.name + ".manifest")


def save_manifest(spool: Union[str, Path], manifest: ShardManifest) -> None:
    """Atomically and durably write the manifest sidecar for ``spool``."""
    durable_write(manifest_path(spool), json.dumps(manifest.to_dict()))


def load_manifest(spool: Union[str, Path]) -> Optional[ShardManifest]:
    """The manifest sidecar contents, or ``None`` when absent/garbled."""
    path = manifest_path(spool)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    try:
        return ShardManifest.from_dict(payload)
    except (ShardError, KeyError, TypeError, ValueError):
        return None


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


def plan_shards(config: CampaignConfig, shards: int) -> List[ShardManifest]:
    """The N manifests one campaign partitions into (pure of config)."""
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    seeds = campaign_seeds(config.seed, config.n_instances)
    key = config_fingerprint(config)
    return [
        ShardManifest(
            config_key=key,
            campaign_seed=config.seed,
            n_instances=config.n_instances,
            shards=shards,
            shard=shard,
            indices=tuple(indices),
        )
        for shard, indices in enumerate(shard_partition(seeds, shards))
    ]


# ------------------------------------------------------------- shard runs


def _count_full_lines(spool: Path) -> int:
    """Newline-terminated lines in ``spool`` (a trailing torn write is
    not a record)."""
    count = 0
    with spool.open("rb") as fh:
        for line in fh:
            if line.endswith(b"\n"):
                count += 1
    return count


def shard_resume_position(spool: Path, manifest: ShardManifest) -> int:
    """Where to restart one shard: completed records, spool reconciled.

    A finished shard (all lines present; sidecar possibly already
    cleared) resumes at its end.  An unfinished spool without a sidecar
    means the crash predates the first checkpoint — restart from zero.
    Everything else defers to :func:`resume_position`, which truncates
    torn or un-checkpointed trailing lines.
    """
    if not spool.exists():
        return 0
    expected = len(manifest.indices)
    if load_checkpoint(spool) is None:
        lines = _count_full_lines(spool)
        if lines == expected:
            return expected
        if lines > expected:
            raise ShardError(
                f"{spool} holds {lines} records but shard "
                f"{manifest.shard}/{manifest.shards} owns {expected}; "
                "refusing to resume a foreign spool"
            )
        spool.unlink()  # crash before the first checkpoint: start over
        return 0
    return resume_position(spool, manifest.config_key)


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
    """Simulate one shard of a campaign into its own checkpointed spool.

    Writes the shard manifest first (durably, before any record), then
    streams the shard's instances through a :class:`JsonlSink`.  With
    ``resume=True`` an interrupted spool continues from its checkpoint —
    bit-identical to an uninterrupted run, because every instance is a
    pure function of ``(config, index, instance_seed)`` and the manifest
    pins which instances the spool holds.  The checkpoint sidecar is
    kept even on clean completion, so re-invoking a finished shard with
    ``resume=True`` is a no-op.
    """
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    if not 0 <= shard < shards:
        raise ShardError(f"shard must be in [0, {shards}), got {shard}")
    manifest = plan_shards(config, shards)[shard]
    spool = shard_spool_path(base, shard, shards)

    existing = load_manifest(spool)
    if existing is not None and existing != manifest:
        raise ShardError(
            f"{spool} belongs to a different campaign or partition "
            f"(config {existing.config_key} shard {existing.shard}/"
            f"{existing.shards}); delete it to start over"
        )
    if spool.exists() and existing is None:
        if resume:
            raise NotShardedError(
                f"{spool} exists but has no shard manifest; it was not "
                "written by a sharded campaign, refusing to resume"
            )
        spool.unlink()
    save_manifest(spool, manifest)

    start = shard_resume_position(spool, manifest) if resume else 0
    expected = len(manifest.indices)
    tel = get_telemetry()
    with tel.span(
        "campaign.shard",
        shard=shard, shards=shards, n=expected, start=start,
    ) as span:
        if start >= expected:
            if not spool.exists():  # a shard can legitimately own nothing
                spool.touch()
            span.set("skipped", True)
            return ShardResult(shard, shards, spool, expected, start)
        seeds = campaign_seeds(config.seed, config.n_instances)
        pairs = [(i, seeds[i]) for i in manifest.indices[start:]]
        sink = JsonlSink(
            spool,
            config_key=manifest.config_key,
            start=start,
            keep_checkpoint=True,
        )
        try:
            for record in iter_campaign_pairs(
                config,
                pairs,
                progress=progress,
                workers=workers,
            ):
                sink.consume(record)
                span.count("records")
            sink.on_complete()
        finally:
            sink.close()
    return ShardResult(shard, shards, spool, expected, start)


# ----------------------------------------------------------------- merge


@dataclass
class MergeResult:
    """Outcome of merging N shard spools back into serial order."""

    out: Path
    shards: int
    records: int
    config_key: str


def load_shard_manifests(
    base: Union[str, Path], shards: int
) -> List[ShardManifest]:
    """The manifests of all N shards of ``base``, cross-validated.

    Raises :class:`ShardError` when any manifest is missing or the set
    is inconsistent (mixed configs, wrong shard counts, indices that do
    not exactly partition the instance space).
    """
    if shards < 1:
        raise ShardError(f"shards must be >= 1, got {shards}")
    manifests: List[ShardManifest] = []
    for shard in range(shards):
        spool = shard_spool_path(base, shard, shards)
        manifest = load_manifest(spool)
        if manifest is None:
            raise NotShardedError(
                f"{spool} has no shard manifest; run shard {shard} first"
            )
        if manifest.shard != shard or manifest.shards != shards:
            raise ShardError(
                f"{spool} claims shard {manifest.shard}/{manifest.shards}, "
                f"expected {shard}/{shards}"
            )
        manifests.append(manifest)
    first = manifests[0]
    for manifest in manifests[1:]:
        if (
            manifest.config_key != first.config_key
            or manifest.campaign_seed != first.campaign_seed
            or manifest.n_instances != first.n_instances
        ):
            raise ShardError(
                "shard manifests disagree about the campaign "
                f"(shard {manifest.shard}: config {manifest.config_key} "
                f"!= {first.config_key})"
            )
    seen: Dict[int, int] = {}
    for manifest in manifests:
        for index in manifest.indices:
            if index in seen:
                raise ShardError(
                    f"instance {index} owned by shards {seen[index]} "
                    f"and {manifest.shard}"
                )
            seen[index] = manifest.shard
    if len(seen) != first.n_instances or (
        seen and (min(seen) != 0 or max(seen) != first.n_instances - 1)
    ):
        raise ShardError(
            f"shard manifests cover {len(seen)} of "
            f"{first.n_instances} instances; the partition is torn"
        )
    return manifests


def _iter_shard_lines(
    spool: Path, manifest: ShardManifest
) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(absolute_index, raw_line)`` pairs from one shard spool."""
    with spool.open("rb") as fh:
        for index, line in zip(manifest.indices, fh):
            yield index, line


def merge_shards(
    base: Union[str, Path],
    shards: int,
    out: Optional[Union[str, Path]] = None,
) -> MergeResult:
    """Merge N completed shard spools into one serial-order spool.

    A k-way streaming merge: every shard's ``(index, line)`` stream is
    ascending in index, so :func:`heapq.merge` reconstructs the exact
    serial record order while holding one line per shard in memory.
    Lines are copied as raw bytes — the merged spool is byte-identical
    to the spool a never-sharded serial campaign writes.  Every shard
    must be complete (spool line count == manifest length); partial
    shards raise :class:`ShardError` and nothing is written.
    """
    base = Path(base)
    target = base if out is None else Path(out)
    manifests = load_shard_manifests(base, shards)
    incomplete: List[str] = []
    for manifest in manifests:
        spool = shard_spool_path(base, manifest.shard, shards)
        lines = _count_full_lines(spool)
        if lines != len(manifest.indices):
            incomplete.append(
                f"shard {manifest.shard}: {lines}/{len(manifest.indices)}"
            )
    if incomplete:
        raise ShardError(
            "cannot merge, incomplete shard spool(s): "
            + "; ".join(incomplete)
        )
    total = manifests[0].n_instances
    tel = get_telemetry()
    with tel.span("campaign.merge", shards=shards, n=total) as span:
        tmp = target.with_name(target.name + ".tmp")
        streams = [
            _iter_shard_lines(shard_spool_path(base, m.shard, shards), m)
            for m in manifests
        ]
        written = 0
        with tmp.open("wb") as fh:
            for _index, line in heapq.merge(*streams):
                fh.write(line)
                written += 1
            fh.flush()
            os.fsync(fh.fileno())
        if written != total:  # pragma: no cover - guarded by count check
            tmp.unlink()
            raise ShardError(
                f"merge produced {written} records, expected {total}"
            )
        os.replace(tmp, target)
        fsync_directory(target.parent)
        span.count("records", written)
    return MergeResult(
        out=target,
        shards=shards,
        records=total,
        config_key=manifests[0].config_key,
    )
