"""Sharded campaigns: partition, manifests, shard runs, exact merge."""

import dataclasses
import json
import shutil

import pytest

from repro.pipeline.checkpoint import (
    Checkpoint,
    clear_checkpoint,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from repro.pipeline.shard import (
    MANIFEST_FORMAT,
    NotShardedError,
    ShardError,
    ShardManifest,
    load_manifest,
    load_shard_manifests,
    manifest_path,
    merge_shards,
    plan_shards,
    run_shard,
    save_manifest,
    shard_resume_position,
    shard_spool_path,
)
from repro.testbed.campaign import CampaignConfig, campaign_seeds, shard_partition

from .test_records import make_record

SHARDS = 3


class TestPartition:
    def test_every_index_in_exactly_one_shard(self):
        seeds = campaign_seeds(7, 50)
        parts = shard_partition(seeds, 4)
        flat = [i for part in parts for i in part]
        assert sorted(flat) == list(range(50))

    def test_indices_ascending_within_shard(self):
        seeds = campaign_seeds(7, 50)
        for part in shard_partition(seeds, 4):
            assert part == sorted(part)

    def test_single_shard_is_identity(self):
        seeds = campaign_seeds(7, 12)
        assert shard_partition(seeds, 1) == [list(range(12))]

    def test_partition_is_by_seed_modulus(self):
        seeds = campaign_seeds(7, 30)
        parts = shard_partition(seeds, 5)
        for shard, part in enumerate(parts):
            assert all(seeds[i] % 5 == shard for i in part)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            shard_partition([1, 2, 3], 0)

    def test_deterministic(self):
        seeds = campaign_seeds(7, 40)
        assert shard_partition(seeds, 6) == shard_partition(list(seeds), 6)


class TestManifest:
    def test_spool_path_naming(self, tmp_path):
        spool = shard_spool_path(tmp_path / "campaign.jsonl", 2, 4)
        assert spool.name == "campaign.shard0002-of-0004.jsonl"
        assert spool.parent == tmp_path

    def test_manifest_path_is_suffixed_sibling(self, tmp_path):
        assert (
            manifest_path(tmp_path / "c.jsonl").name == "c.jsonl.manifest"
        )

    def test_save_load_round_trip(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        manifest = ShardManifest(
            config_key="k1", campaign_seed=9, n_instances=5,
            shards=2, shard=1, indices=(1, 3, 4),
        )
        save_manifest(spool, manifest)
        assert load_manifest(spool) == manifest
        payload = json.loads(manifest_path(spool).read_text())
        assert payload["format"] == MANIFEST_FORMAT

    def test_load_absent_is_none(self, tmp_path):
        assert load_manifest(tmp_path / "c.jsonl") is None

    def test_load_garbage_is_none(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        manifest_path(spool).write_text("{not json")
        assert load_manifest(spool) is None

    def test_load_foreign_format_is_none(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        manifest_path(spool).write_text(json.dumps({"format": "v99"}))
        assert load_manifest(spool) is None

    def test_plan_shards_partitions_instance_space(self):
        config = CampaignConfig(n_instances=20, seed=5)
        manifests = plan_shards(config, 4)
        assert [m.shard for m in manifests] == [0, 1, 2, 3]
        flat = sorted(i for m in manifests for i in m.indices)
        assert flat == list(range(20))
        assert all(m.config_key == config_fingerprint(config) for m in manifests)
        assert all(m.n_instances == 20 and m.shards == 4 for m in manifests)

    def test_plan_shards_zero_rejected(self):
        with pytest.raises(ShardError, match=">= 1"):
            plan_shards(CampaignConfig(n_instances=4, seed=5), 0)


@pytest.fixture(scope="module")
def sharded_dir(tmp_path_factory, shard_config):
    """All SHARDS shards of the reference campaign, run once per module."""
    root = tmp_path_factory.mktemp("sharded")
    base = root / "campaign.jsonl"
    for shard in range(SHARDS):
        run_shard(shard_config, base, SHARDS, shard)
    return root


def _copy(sharded_dir, tmp_path):
    """A private mutable copy of the pre-run shard spools."""
    dest = tmp_path / "work"
    shutil.copytree(sharded_dir, dest)
    return dest / "campaign.jsonl"


class TestRunShardAndMerge:
    def test_merge_is_byte_identical_to_serial(
        self, sharded_dir, tmp_path, shard_config, serial_reference
    ):
        base = _copy(sharded_dir, tmp_path)
        out = tmp_path / "merged.jsonl"
        result = merge_shards(base, SHARDS, out=out)
        assert out.read_bytes() == serial_reference
        assert result.records == shard_config.n_instances
        assert result.shards == SHARDS
        assert result.config_key == config_fingerprint(shard_config)

    def test_merge_defaults_to_base_path(
        self, sharded_dir, tmp_path, serial_reference
    ):
        base = _copy(sharded_dir, tmp_path)
        merge_shards(base, SHARDS)
        assert base.read_bytes() == serial_reference

    def test_empty_shard_still_spools_and_completes(self, sharded_dir):
        # Shard 0 of the reference partition owns zero indices.
        base = sharded_dir / "campaign.jsonl"
        manifest = load_manifest(shard_spool_path(base, 0, SHARDS))
        assert manifest.indices == ()
        assert shard_spool_path(base, 0, SHARDS).stat().st_size == 0

    def test_rerun_finished_shard_noops(
        self, sharded_dir, tmp_path, shard_config
    ):
        base = _copy(sharded_dir, tmp_path)
        spool = shard_spool_path(base, 1, SHARDS)
        before = spool.read_bytes()
        result = run_shard(shard_config, base, SHARDS, 1, resume=True)
        assert result.resumed_at == result.records == len(
            load_manifest(spool).indices
        )
        assert spool.read_bytes() == before

    def test_rerun_without_resume_restarts_identically(
        self, sharded_dir, tmp_path, shard_config
    ):
        base = _copy(sharded_dir, tmp_path)
        spool = shard_spool_path(base, 2, SHARDS)
        before = spool.read_bytes()
        result = run_shard(shard_config, base, SHARDS, 2, resume=False)
        assert result.resumed_at == 0
        assert spool.read_bytes() == before

    def test_shard_out_of_range_rejected(self, tmp_path, shard_config):
        with pytest.raises(ShardError, match=r"in \[0, 3\)"):
            run_shard(shard_config, tmp_path / "c.jsonl", 3, 3)
        with pytest.raises(ShardError, match=">= 1"):
            run_shard(shard_config, tmp_path / "c.jsonl", 0, 0)

    def test_foreign_manifest_refuses(
        self, sharded_dir, tmp_path, shard_config
    ):
        base = _copy(sharded_dir, tmp_path)
        other = dataclasses.replace(shard_config, seed=shard_config.seed + 1)
        with pytest.raises(ShardError, match="different campaign"):
            run_shard(other, base, SHARDS, 1)

    def test_unsharded_spool_refuses_resume(self, tmp_path, shard_config):
        base = tmp_path / "c.jsonl"
        spool = shard_spool_path(base, 1, SHARDS)
        spool.write_text("not a sharded spool\n")
        with pytest.raises(NotShardedError, match="no shard manifest"):
            run_shard(shard_config, base, SHARDS, 1, resume=True)

    def test_unsharded_spool_overwritten_without_resume(
        self, tmp_path, shard_config, sharded_dir
    ):
        base = tmp_path / "c.jsonl"
        spool = shard_spool_path(base, 1, SHARDS)
        spool.write_text("junk\n")
        run_shard(shard_config, base, SHARDS, 1, resume=False)
        reference = shard_spool_path(
            sharded_dir / "campaign.jsonl", 1, SHARDS
        ).read_bytes()
        assert spool.read_bytes() == reference


class TestMergeValidation:
    def test_incomplete_shard_refuses(self, sharded_dir, tmp_path):
        base = _copy(sharded_dir, tmp_path)
        spool = shard_spool_path(base, 2, SHARDS)
        lines = spool.read_bytes().splitlines(keepends=True)
        spool.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(ShardError, match="incomplete shard spool"):
            merge_shards(base, SHARDS)

    def test_missing_shard_refuses(self, sharded_dir, tmp_path):
        base = _copy(sharded_dir, tmp_path)
        manifest_path(shard_spool_path(base, 1, SHARDS)).unlink()
        with pytest.raises(NotShardedError, match="no shard manifest"):
            merge_shards(base, SHARDS)

    def test_mixed_configs_refuse(self, sharded_dir, tmp_path):
        base = _copy(sharded_dir, tmp_path)
        spool = shard_spool_path(base, 1, SHARDS)
        forged = dataclasses.replace(
            load_manifest(spool), config_key="0000000000000000"
        )
        save_manifest(spool, forged)
        with pytest.raises(ShardError, match="disagree"):
            merge_shards(base, SHARDS)

    def test_wrong_slot_refuses(self, sharded_dir, tmp_path):
        base = _copy(sharded_dir, tmp_path)
        spool = shard_spool_path(base, 1, SHARDS)
        forged = dataclasses.replace(load_manifest(spool), shard=0)
        save_manifest(spool, forged)
        with pytest.raises(ShardError, match="claims shard"):
            merge_shards(base, SHARDS)

    def _synthetic(self, base, shards, indices_by_shard, n):
        for shard, indices in enumerate(indices_by_shard):
            spool = shard_spool_path(base, shard, shards)
            save_manifest(spool, ShardManifest(
                config_key="k1", campaign_seed=1, n_instances=n,
                shards=shards, shard=shard, indices=tuple(indices),
            ))
            spool.write_bytes(b"".join(b"{}\n" for _ in indices))

    def test_duplicate_index_refuses(self, tmp_path):
        base = tmp_path / "c.jsonl"
        self._synthetic(base, 2, [(0, 1), (1, 2)], 3)
        with pytest.raises(ShardError, match="owned by shards"):
            load_shard_manifests(base, 2)

    def test_torn_partition_refuses(self, tmp_path):
        base = tmp_path / "c.jsonl"
        self._synthetic(base, 2, [(0,), (2,)], 3)
        with pytest.raises(ShardError, match="torn"):
            load_shard_manifests(base, 2)


def _make_shard(tmp_path, n_lines, indices, key="k1", completed=None):
    """A synthetic shard spool: record-shaped lines + sidecars."""
    from repro.pipeline.records import record_to_json

    base = tmp_path / "c.jsonl"
    spool = shard_spool_path(base, 0, 1)
    manifest = ShardManifest(
        config_key=key, campaign_seed=1, n_instances=len(indices),
        shards=1, shard=0, indices=tuple(indices),
    )
    save_manifest(spool, manifest)
    lines = [record_to_json(make_record(mos=2.0 + i)) for i in range(n_lines)]
    spool.write_text("".join(line + "\n" for line in lines))
    if completed is not None:
        save_checkpoint(spool, Checkpoint(config_key=key, completed=completed))
    return spool, manifest


class TestShardResumePosition:
    def test_missing_spool_starts_at_zero(self, tmp_path):
        _, manifest = _make_shard(tmp_path, 0, (0, 1))
        missing = tmp_path / "nowhere.jsonl"
        assert shard_resume_position(missing, manifest) == 0

    def test_checkpoint_defers_to_resume_position(self, tmp_path):
        spool, manifest = _make_shard(tmp_path, 3, (0, 1, 2), completed=2)
        assert shard_resume_position(spool, manifest) == 2
        # the un-checkpointed third line was truncated away
        assert len(spool.read_bytes().splitlines()) == 2

    def test_finished_shard_without_sidecar_resumes_at_end(self, tmp_path):
        spool, manifest = _make_shard(tmp_path, 3, (0, 1, 2), completed=3)
        clear_checkpoint(spool)
        assert shard_resume_position(spool, manifest) == 3

    def test_crash_before_first_checkpoint_restarts(self, tmp_path):
        spool, manifest = _make_shard(tmp_path, 2, (0, 1, 2))
        assert load_checkpoint(spool) is None
        assert shard_resume_position(spool, manifest) == 0
        assert not spool.exists()

    def test_overfull_spool_refuses(self, tmp_path):
        spool, manifest = _make_shard(tmp_path, 3, (0, 1))
        with pytest.raises(ShardError, match="foreign spool"):
            shard_resume_position(spool, manifest)
