"""Checkpoint sidecar bookkeeping: fingerprints, reconcile, truncation."""

import json

import pytest

from repro.pipeline.checkpoint import (
    CHECKPOINT_FORMAT,
    Checkpoint,
    checkpoint_path,
    clear_checkpoint,
    config_fingerprint,
    load_checkpoint,
    resume_position,
    save_checkpoint,
)
from repro.pipeline.records import record_to_json
from repro.testbed.campaign import CampaignConfig
from repro.testbed.realworld import RealWorldConfig

from .test_records import make_record


def write_spool(path, n, completed=None, key="k1"):
    lines = [record_to_json(make_record(mos=3.0 + i)) for i in range(n)]
    path.write_text("".join(line + "\n" for line in lines))
    save_checkpoint(path, Checkpoint(config_key=key, completed=n if completed is None else completed))
    return lines


class TestFingerprint:
    def test_same_config_same_key(self):
        a = CampaignConfig(n_instances=10, seed=1)
        b = CampaignConfig(n_instances=10, seed=1)
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_seed_changes_key(self):
        a = CampaignConfig(n_instances=10, seed=1)
        b = CampaignConfig(n_instances=10, seed=2)
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_config_type_is_part_of_identity(self):
        a = CampaignConfig(n_instances=10, seed=1)
        b = RealWorldConfig(n_instances=10, seed=1)
        assert config_fingerprint(a) != config_fingerprint(b)


class TestSidecar:
    def test_path_is_suffixed_sibling(self, tmp_path):
        assert checkpoint_path(tmp_path / "c.jsonl").name == "c.jsonl.ckpt"

    def test_save_load_round_trip(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        save_checkpoint(spool, Checkpoint(config_key="abc", completed=4))
        loaded = load_checkpoint(spool)
        assert loaded == Checkpoint(config_key="abc", completed=4)
        payload = json.loads(checkpoint_path(spool).read_text())
        assert payload["format"] == CHECKPOINT_FORMAT

    def test_load_absent_is_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "c.jsonl") is None

    def test_load_garbage_is_none(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        checkpoint_path(spool).write_text("{not json")
        assert load_checkpoint(spool) is None

    def test_load_foreign_format_is_none(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        checkpoint_path(spool).write_text(json.dumps({"format": "v99", "completed": 1}))
        assert load_checkpoint(spool) is None

    def test_clear_is_idempotent(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        save_checkpoint(spool, Checkpoint(config_key="abc", completed=1))
        clear_checkpoint(spool)
        clear_checkpoint(spool)
        assert not checkpoint_path(spool).exists()


class TestDurability:
    def test_sidecar_write_fsyncs_file_and_directory(
        self, tmp_path, monkeypatch
    ):
        # Regression: rename alone leaves the directory entry volatile —
        # a crash could resurface the old sidecar (or none) while the
        # spool already holds newer records.  Record every fsynced inode
        # (while still really syncing) and require both the sidecar file
        # and its containing directory, in that order.
        import os

        real_fsync = os.fsync
        synced = []

        def recording_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        spool = tmp_path / "c.jsonl"
        save_checkpoint(spool, Checkpoint(config_key="k1", completed=3))
        file_ino = os.stat(checkpoint_path(spool)).st_ino
        dir_ino = os.stat(tmp_path).st_ino
        assert file_ino in synced
        assert dir_ino in synced
        assert synced.index(file_ino) < synced.index(dir_ino)


class TestResumePosition:
    def test_fresh_spool_starts_at_zero(self, tmp_path):
        assert resume_position(tmp_path / "c.jsonl", "k1") == 0

    def test_resumes_at_checkpoint(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        write_spool(spool, 3)
        assert resume_position(spool, "k1") == 3

    def test_spool_without_sidecar_refuses(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        write_spool(spool, 2)
        clear_checkpoint(spool)
        with pytest.raises(ValueError, match="no usable checkpoint"):
            resume_position(spool, "k1")

    def test_config_mismatch_refuses(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        write_spool(spool, 2, key="other-campaign")
        with pytest.raises(ValueError, match="different campaign config"):
            resume_position(spool, "k1")

    def test_partial_trailing_line_truncated(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        lines = write_spool(spool, 2, completed=2)
        with spool.open("a") as fh:
            fh.write('{"format": "repro-record-v1", "feat')  # crash mid-write
        assert resume_position(spool, "k1") == 2
        assert spool.read_text() == "".join(line + "\n" for line in lines)

    def test_uncheckpointed_full_line_truncated(self, tmp_path):
        # Crash between writing line 3 and bumping the sidecar to 3:
        # the spool must be cut back to the 2 checkpointed lines.
        spool = tmp_path / "c.jsonl"
        lines = write_spool(spool, 3, completed=2)
        assert resume_position(spool, "k1") == 2
        assert spool.read_text() == "".join(line + "\n" for line in lines[:2])

    def test_sink_killed_before_first_checkpoint_resumes_at_zero(
        self, tmp_path
    ):
        # Killed after the first line reached the spool but before its
        # checkpoint: the sidecar the sink saved on opening makes the
        # spool resumable, like any later crash.
        from repro.pipeline.sinks import JsonlSink

        spool = tmp_path / "c.jsonl"
        JsonlSink(spool, config_key="k1").close()
        with spool.open("a") as fh:
            fh.write(record_to_json(make_record()) + "\n")
        assert resume_position(spool, "k1") == 0
        assert spool.read_text() == ""

    def test_spool_shorter_than_checkpoint_trusts_spool(self, tmp_path):
        spool = tmp_path / "c.jsonl"
        write_spool(spool, 2, completed=5)
        assert resume_position(spool, "k1") == 2
        # and the sidecar is corrected for the next resume
        assert load_checkpoint(spool).completed == 2
