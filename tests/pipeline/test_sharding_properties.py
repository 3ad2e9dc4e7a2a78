"""Property tests for shard slices, merge order, and resume.

Hypothesis drives arbitrary shard counts, campaign sizes and kill
schedules through the *bookkeeping* layer — no simulation.  The merge
and resume machinery is content-agnostic (raw byte lines + checkpoint
sidecars), so synthetic spools pin the same invariants the real campaign
relies on, thousands of cases per second:

- every index lands in exactly one slice, the slices are in order and
  their sizes differ by at most one;
- a slice's seeds are the serial campaign's seeds for those indices;
- merging arbitrary shard spools reconstructs serial byte order exactly,
  also with more shards than instances;
- resuming after an arbitrary sequence of cuts (crashes) at arbitrary
  checkpoints converges to the same bytes as a never-crashed run.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.checkpoint import (
    Checkpoint,
    config_fingerprint,
    resume_position,
    save_checkpoint,
)
from repro.pipeline.shard import (
    merge_shards,
    shard_bounds,
    shard_key,
    shard_spool_path,
)
from repro.testbed.campaign import CampaignConfig, campaign_seeds


def _slices(n, shards):
    return [shard_bounds(n, shards, shard) for shard in range(shards)]


@given(n=st.integers(0, 200), shards=st.integers(1, 12))
def test_partition_covers_every_index_exactly_once(n, shards):
    flat = [i for lo, hi in _slices(n, shards) for i in range(lo, hi)]
    assert flat == list(range(n))


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(0, 200),
    shards=st.integers(1, 12),
)
def test_partition_ascending_and_seed_keyed(seed, n, shards):
    # Slices are in order, and the seeds a slice draws (the first `hi`
    # draws of the campaign RNG) are the serial seeds of its indices.
    slices = _slices(n, shards)
    assert slices[0][0] == 0 and slices[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(slices, slices[1:]))
    seeds = campaign_seeds(seed, n)
    for lo, hi in slices:
        assert campaign_seeds(seed, hi)[lo:] == seeds[lo:hi]


@given(n=st.integers(0, 200), shards=st.integers(1, 12))
def test_partition_is_balanced(n, shards):
    sizes = [hi - lo for lo, hi in _slices(n, shards)]
    assert min(sizes) >= 0 and max(sizes) - min(sizes) <= 1


@given(n=st.integers(0, 200), shards=st.integers(1, 12))
def test_partition_stable_across_calls(n, shards):
    assert _slices(n, shards) == _slices(n, shards)


def _lines(n, seed):
    """Distinct, record-shaped byte lines for a synthetic campaign."""
    return [
        (json.dumps({"index": i, "seed": seed, "pad": i * 7}) + "\n").encode()
        for i in range(n)
    ]


def _write_shards(base, config, shards, lines):
    """Write every finished shard's spool + checkpoint sidecar."""
    for shard, (lo, hi) in enumerate(_slices(config.n_instances, shards)):
        spool = shard_spool_path(base, shard, shards)
        spool.write_bytes(b"".join(lines[lo:hi]))
        save_checkpoint(spool, Checkpoint(
            config_key=shard_key(config, shards, shard), completed=hi - lo,
        ))


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(0, 80),
    shards=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_merge_reconstructs_serial_byte_order(seed, n, shards):
    config = CampaignConfig(n_instances=n, seed=seed)
    lines = _lines(n, seed)
    with tempfile.TemporaryDirectory() as td:
        base = Path(td) / "c.jsonl"
        _write_shards(base, config, shards, lines)
        out = Path(td) / "merged.jsonl"
        result = merge_shards(config, base, shards, out=out)
        assert out.read_bytes() == b"".join(lines)
        assert result.records == n
        assert result.config_key == config_fingerprint(config)


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 60),
    shards=st.integers(1, 6),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_resume_after_arbitrary_kill_schedule(seed, n, shards, data):
    """Crash a shard at arbitrary checkpoints; resume converges exactly.

    Models what a SIGKILL leaves on disk: ``c`` durable lines, a sidecar
    at ``c``, and possibly a torn trailing write.  However many times a
    shard is cut, writing ``lines[resume:]`` after each resume ends with
    every spool byte-identical to an uninterrupted run, and the merge
    equal to the serial reference.
    """
    config = CampaignConfig(n_instances=n, seed=seed)
    lines = _lines(n, seed)
    with tempfile.TemporaryDirectory() as td:
        base = Path(td) / "c.jsonl"
        _write_shards(base, config, shards, lines)
        victim = data.draw(st.integers(0, shards - 1), label="victim shard")
        key = shard_key(config, shards, victim)
        spool = shard_spool_path(base, victim, shards)
        lo, hi = shard_bounds(n, shards, victim)
        owned = lines[lo:hi]

        kills = data.draw(
            st.lists(st.integers(0, len(owned)), max_size=3, unique=True)
            .map(sorted),
            label="kill checkpoints",
        )
        for cut in kills:
            # the crash: only `cut` records checkpointed, maybe a torn tail
            spool.write_bytes(b"".join(owned[:cut]))
            save_checkpoint(spool, Checkpoint(config_key=key, completed=cut))
            if cut < len(owned) and data.draw(
                st.booleans(), label="torn tail"
            ):
                with spool.open("ab") as fh:
                    fh.write(owned[cut][: max(1, len(owned[cut]) // 2)])
            # the retry: resume tells us where, we replay the remainder
            resumed = resume_position(spool, key)
            assert resumed == cut
            with spool.open("ab") as fh:
                fh.write(b"".join(owned[resumed:]))
            save_checkpoint(
                spool, Checkpoint(config_key=key, completed=len(owned)),
            )
            assert spool.read_bytes() == b"".join(owned)

        out = Path(td) / "merged.jsonl"
        merge_shards(config, base, shards, out=out)
        assert out.read_bytes() == b"".join(lines)


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 60),
    shards=st.integers(1, 6),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_crash_before_first_checkpoint_restarts_cleanly(
    seed, n, shards, data
):
    config = CampaignConfig(n_instances=n, seed=seed)
    lines = _lines(n, seed)
    with tempfile.TemporaryDirectory() as td:
        base = Path(td) / "c.jsonl"
        victim = data.draw(st.integers(0, shards - 1), label="victim shard")
        key = shard_key(config, shards, victim)
        spool = shard_spool_path(base, victim, shards)
        lo, hi = shard_bounds(n, shards, victim)
        if lo == hi:
            return  # an empty shard has no first record to tear
        # the sidecar saved at open, then a torn first write
        save_checkpoint(spool, Checkpoint(config_key=key, completed=0))
        spool.write_bytes(lines[lo][: len(lines[lo]) // 2])
        assert resume_position(spool, key) == 0
        assert spool.read_bytes() == b""
