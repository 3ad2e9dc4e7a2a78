"""Sharded campaigns: slice bounds, shard runs, resume, exact merge."""

import dataclasses
import shutil

import pytest

from repro.pipeline.checkpoint import (
    Checkpoint,
    checkpoint_path,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from repro.pipeline.shard import (
    NotShardedError,
    ShardError,
    merge_shards,
    run_shard,
    shard_bounds,
    shard_key,
    shard_spool_path,
)
from repro.pipeline.sinks import JsonlSink
from repro.testbed.campaign import campaign_seeds

SHARDS = 3


def _slices(n, shards):
    return [shard_bounds(n, shards, shard) for shard in range(shards)]


class TestPartition:
    def test_every_index_in_exactly_one_shard(self):
        flat = [i for lo, hi in _slices(50, 4) for i in range(lo, hi)]
        assert flat == list(range(50))

    def test_indices_ascending_within_shard(self):
        slices = _slices(50, 4)
        assert all(lo <= hi for lo, hi in slices)
        assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))

    def test_single_shard_is_identity(self):
        assert shard_bounds(12, 1, 0) == (0, 12)

    def test_partition_is_contiguous_slices(self):
        assert _slices(10, 4) == [(0, 2), (2, 5), (5, 7), (7, 10)]
        assert _slices(2, 4) == [(0, 0), (0, 1), (1, 1), (1, 2)]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            shard_bounds(3, 0, 0)

    def test_deterministic(self):
        # A slice's seeds are the serial campaign's: the first `hi` draws
        # of the campaign RNG do not depend on how many follow.
        seeds = campaign_seeds(7, 40)
        for lo, hi in _slices(40, 6):
            assert campaign_seeds(7, hi)[lo:] == seeds[lo:hi]
        assert _slices(40, 6) == _slices(40, 6)


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


def _shard_lines(serial_reference, shards, shard, n):
    lo, hi = shard_bounds(n, shards, shard)
    return b"".join(serial_reference.splitlines(keepends=True)[lo:hi])


class TestManifest:
    """A shard spool's manifest is its checkpoint sidecar.

    The slice bounds say which indices a spool holds; the shard key in
    the sidecar says which campaign and slice wrote it.  An absent or
    unreadable sidecar is no checkpoint, and the spool is refused.
    """

    def test_spool_path_naming(self, tmp_path):
        spool = shard_spool_path(tmp_path / "campaign.jsonl", 2, 4)
        assert spool.name == "campaign.shard0002-of-0004.jsonl"
        assert spool.parent == tmp_path

    def test_manifest_path_is_suffixed_sibling(self, tmp_path, shard_config):
        base = tmp_path / "c.jsonl"
        run_shard(shard_config, base, 7, 0)  # an empty slice: no simulation
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.shard0000-of-0007.jsonl", "c.shard0000-of-0007.jsonl.ckpt",
        ]

    def test_save_load_round_trip(self, tmp_path, shard_config):
        base = tmp_path / "c.jsonl"
        run_shard(shard_config, base, 7, 0)
        assert load_checkpoint(shard_spool_path(base, 0, 7)) == Checkpoint(
            config_key=shard_key(shard_config, 7, 0), completed=0,
        )

    def _refused(self, tmp_path, config, sidecar=None):
        base = tmp_path / "c.jsonl"
        spool = shard_spool_path(base, 0, 7)
        spool.touch()
        if sidecar is not None:
            checkpoint_path(spool).write_text(sidecar)
        assert load_checkpoint(spool) is None
        with pytest.raises(NotShardedError, match="no usable checkpoint"):
            run_shard(config, base, 7, 0, resume=True)
        with pytest.raises(NotShardedError, match="no usable checkpoint"):
            merge_shards(config, base, 7)

    def test_load_absent_is_none(self, tmp_path, shard_config):
        self._refused(tmp_path, shard_config)

    def test_load_garbage_is_none(self, tmp_path, shard_config):
        self._refused(tmp_path, shard_config, "{not json")

    def test_load_foreign_format_is_none(self, tmp_path, shard_config):
        self._refused(tmp_path, shard_config, '{"format": "v99"}')


class TestRunShardAndMerge:
    def test_shard_spool_is_its_slice_of_serial(
        self, sharded_dir, shard_config, serial_reference
    ):
        base = sharded_dir / "campaign.jsonl"
        for shard in range(SHARDS):
            spool = shard_spool_path(base, shard, SHARDS)
            assert spool.read_bytes() == _shard_lines(
                serial_reference, SHARDS, shard, shard_config.n_instances
            )
            # the sidecar is kept on completion, keyed by campaign + slice
            assert load_checkpoint(spool) == Checkpoint(
                config_key=shard_key(shard_config, SHARDS, shard),
                completed=2,
            )
            assert not spool.with_name(spool.name + ".manifest").exists()

    def test_shard_key_names_campaign_and_slice(self, shard_config):
        keys = {shard_key(shard_config, n, k)
                for n in (1, 2, 3) for k in range(n)}
        assert len(keys) == 6
        assert config_fingerprint(shard_config) not in keys

    def test_merge_is_byte_identical_to_serial(
        self, sharded_dir, tmp_path, shard_config, serial_reference
    ):
        base = _copy(sharded_dir, tmp_path)
        out = tmp_path / "merged.jsonl"
        result = merge_shards(shard_config, base, SHARDS, out=out)
        assert out.read_bytes() == serial_reference
        assert result.records == shard_config.n_instances
        assert result.shards == SHARDS
        assert result.config_key == config_fingerprint(shard_config)
        assert not out.with_name(out.name + ".tmp").exists()

    def test_merge_defaults_to_base_path(
        self, sharded_dir, tmp_path, shard_config, serial_reference
    ):
        base = _copy(sharded_dir, tmp_path)
        merge_shards(shard_config, base, SHARDS)
        assert base.read_bytes() == serial_reference

    def test_empty_shard_still_spools_and_completes(
        self, tmp_path, shard_config
    ):
        # More shards than instances: shard 0 of 7 owns nothing, but it
        # still leaves an empty spool and its checkpoint for the merge.
        base = tmp_path / "c.jsonl"
        assert shard_bounds(shard_config.n_instances, 7, 0) == (0, 0)
        result = run_shard(shard_config, base, 7, 0)
        spool = shard_spool_path(base, 0, 7)
        assert result.records == 0 and spool.stat().st_size == 0
        assert load_checkpoint(spool).completed == 0

    def test_rerun_finished_shard_noops(
        self, sharded_dir, tmp_path, shard_config
    ):
        base = _copy(sharded_dir, tmp_path)
        spool = shard_spool_path(base, 1, SHARDS)
        before = spool.read_bytes()
        result = run_shard(shard_config, base, SHARDS, 1, resume=True)
        assert result.resumed_at == result.records == 2
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
        with pytest.raises(ShardError, match=">= 1"):
            merge_shards(shard_config, tmp_path / "c.jsonl", 0)

    def test_foreign_manifest_refuses(
        self, sharded_dir, tmp_path, shard_config
    ):
        # The checkpoint's shard key is what names the spool's campaign.
        base = _copy(sharded_dir, tmp_path)
        other = dataclasses.replace(shard_config, seed=shard_config.seed + 1)
        for resume in (False, True):
            with pytest.raises(ShardError, match="different campaign"):
                run_shard(other, base, SHARDS, 1, resume=resume)

    @pytest.mark.parametrize("resume", [False, True])
    def test_other_slice_refuses(
        self, sharded_dir, tmp_path, shard_config, resume
    ):
        base = _copy(sharded_dir, tmp_path)
        src = shard_spool_path(base, 2, SHARDS)
        dst = shard_spool_path(base, 1, SHARDS)
        shutil.copy(src, dst)
        shutil.copy(checkpoint_path(src), checkpoint_path(dst))
        before = dst.read_bytes()
        with pytest.raises(ShardError, match="or slice"):
            run_shard(shard_config, base, SHARDS, 1, resume=resume)
        assert dst.read_bytes() == before

    @pytest.mark.parametrize("resume", [False, True])
    def test_pre_slice_shard_spool_refuses(
        self, tmp_path, shard_config, resume
    ):
        # Seed-partitioned shard spools carry the bare config fingerprint.
        base = tmp_path / "c.jsonl"
        spool = shard_spool_path(base, 1, SHARDS)
        spool.write_text("{}\n")
        key = config_fingerprint(shard_config)
        save_checkpoint(spool, Checkpoint(config_key=key, completed=1))
        with pytest.raises(ShardError, match="different campaign"):
            run_shard(shard_config, base, SHARDS, 1, resume=resume)
        assert spool.read_text() == "{}\n"

    def test_unsharded_spool_refuses_resume(self, tmp_path, shard_config):
        base = tmp_path / "c.jsonl"
        spool = shard_spool_path(base, 1, SHARDS)
        spool.write_text("not a sharded spool\n")
        with pytest.raises(NotShardedError, match="no usable checkpoint"):
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
    def test_incomplete_shard_refuses(self, sharded_dir, tmp_path, shard_config):
        base = _copy(sharded_dir, tmp_path)
        spool = shard_spool_path(base, 2, SHARDS)
        lines = spool.read_bytes().splitlines(keepends=True)
        spool.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(ShardError, match="incomplete shard spool"):
            merge_shards(shard_config, base, SHARDS)
        assert not base.exists()

    def test_interrupted_shard_refuses(self, sharded_dir, tmp_path, shard_config):
        # A checkpoint short of the slice: the shard was never finished.
        base = _copy(sharded_dir, tmp_path)
        spool = shard_spool_path(base, 1, SHARDS)
        key = shard_key(shard_config, SHARDS, 1)
        save_checkpoint(spool, Checkpoint(config_key=key, completed=1))
        with pytest.raises(ShardError, match="shard 1: 2 lines, 1 checkpointed"):
            merge_shards(shard_config, base, SHARDS)

    def test_missing_shard_refuses(self, sharded_dir, tmp_path, shard_config):
        base = _copy(sharded_dir, tmp_path)
        checkpoint_path(shard_spool_path(base, 1, SHARDS)).unlink()
        with pytest.raises(NotShardedError, match="no usable checkpoint"):
            merge_shards(shard_config, base, SHARDS)

    def test_mixed_configs_refuse(self, sharded_dir, tmp_path, shard_config):
        base = _copy(sharded_dir, tmp_path)
        spool = shard_spool_path(base, 1, SHARDS)
        save_checkpoint(spool, Checkpoint(config_key="0000000000000000",
                                          completed=2))
        with pytest.raises(ShardError, match="different campaign"):
            merge_shards(shard_config, base, SHARDS)

    def test_wrong_slot_refuses(self, sharded_dir, tmp_path, shard_config):
        base = _copy(sharded_dir, tmp_path)
        src = shard_spool_path(base, 0, SHARDS)
        dst = shard_spool_path(base, 1, SHARDS)
        shutil.copy(src, dst)
        shutil.copy(checkpoint_path(src), checkpoint_path(dst))
        with pytest.raises(ShardError, match="or slice"):
            merge_shards(shard_config, base, SHARDS)

    def test_other_seed_refuses(self, sharded_dir, tmp_path, shard_config):
        base = _copy(sharded_dir, tmp_path)
        other = dataclasses.replace(shard_config, seed=shard_config.seed + 1)
        with pytest.raises(ShardError, match="different campaign"):
            merge_shards(other, base, SHARDS)
        assert not base.exists()

    def test_pre_slice_shard_spools_refuse(
        self, sharded_dir, tmp_path, shard_config
    ):
        base = _copy(sharded_dir, tmp_path)
        for shard in range(SHARDS):
            spool = shard_spool_path(base, shard, SHARDS)
            save_checkpoint(spool, Checkpoint(
                config_key=config_fingerprint(shard_config), completed=2,
            ))
        with pytest.raises(ShardError, match="different campaign"):
            merge_shards(shard_config, base, SHARDS)


class TestShardResumePosition:
    def test_missing_spool_starts_at_zero(self, tmp_path, shard_config):
        result = run_shard(shard_config, tmp_path / "c.jsonl", 7, 0,
                           resume=True)
        assert result.resumed_at == 0

    def test_checkpoint_defers_to_resume_position(
        self, sharded_dir, tmp_path, shard_config, serial_reference
    ):
        # Killed after one checkpointed record, mid-way through the next.
        base = _copy(sharded_dir, tmp_path)
        spool = shard_spool_path(base, 1, SHARDS)
        reference = spool.read_bytes()
        first, second = reference.splitlines(keepends=True)
        spool.write_bytes(first + second[: len(second) // 2])
        key = shard_key(shard_config, SHARDS, 1)
        save_checkpoint(spool, Checkpoint(config_key=key, completed=1))
        result = run_shard(shard_config, base, SHARDS, 1, resume=True)
        assert result.resumed_at == 1
        assert spool.read_bytes() == reference

    def test_crash_before_first_checkpoint_restarts(
        self, sharded_dir, tmp_path, shard_config
    ):
        # The sidecar is saved when the spool opens, so a shard killed
        # while writing its first record resumes at 0 like any other.
        base = tmp_path / "c.jsonl"
        spool = shard_spool_path(base, 1, SHARDS)
        JsonlSink(spool, config_key=shard_key(shard_config, SHARDS, 1),
                  keep_checkpoint=True).close()
        with spool.open("a") as fh:
            fh.write('{"format": "repro-record-v1", "feat')
        assert load_checkpoint(spool).completed == 0
        result = run_shard(shard_config, base, SHARDS, 1, resume=True)
        assert result.resumed_at == 0
        reference = shard_spool_path(sharded_dir / "campaign.jsonl", 1, SHARDS)
        assert spool.read_bytes() == reference.read_bytes()
