"""Crash paths of parallel and sharded campaigns: real SIGKILLs.

Two contracts.  A campaign process pool that loses a worker starts a
fresh pool for the instances not yet yielded, so the records come out
**byte-identical** to the serial, never-crashed reference; a worker that
keeps dying exhausts ``MAX_POOL_RESTARTS`` and fails cleanly with its
checkpoint kept.  A shard process that dies itself continues from its
checkpoint with ``run_shard(resume=True)``.

Faults come from the test side (``tests/oracles.py``): the controlled
campaign's instance function is patched, and forked pool workers and
shard subprocesses inherit the patch.  Slices of the session config
(6 instances, seed 77): with 3 shards, shard 1 owns indices 2..3 and
shard 2 owns 4..5; with 4 shards the busiest is shard 1, owning 1..2.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

from repro.cli import main
from repro.obs.telemetry import get_telemetry, tracing
from repro.pipeline import CampaignSource, JsonlSink, Pipeline
from repro.pipeline.checkpoint import checkpoint_path, load_checkpoint
from repro.pipeline.records import record_to_json
from repro.pipeline.shard import (
    merge_shards,
    run_shard,
    shard_bounds,
    shard_spool_path,
)
from repro.testbed.campaign import (
    MAX_POOL_RESTARTS,
    WorkerCrashError,
    iter_campaign,
)
from tests.oracles import failing_instance, killed_worker

SHARDS = 3

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process pool and shard subprocesses need fork",
)


def _shard_bytes(serial_reference, lo, hi):
    return b"".join(serial_reference.splitlines(keepends=True)[lo:hi])


# ------------------------------------------------------------ the pool


def test_sigkill_mid_spool_resumes_byte_identical(
    tmp_path, shard_config, serial_reference
):
    # One worker is SIGKILLed once, mid-spool: a fresh pool reruns what
    # was not yet yielded, progress still fires once per index in order.
    spool = tmp_path / "campaign.jsonl"
    seen = []
    with killed_worker(2):
        Pipeline(
            CampaignSource(shard_config, workers=2,
                           progress=lambda index, _r: seen.append(index)),
            JsonlSink(spool),
        ).run()
    assert spool.read_bytes() == serial_reference
    assert seen == list(range(shard_config.n_instances))
    assert not checkpoint_path(spool).exists()


def test_traced_restart_absorbs_each_instance_once(
    shard_config, serial_reference
):
    with tracing() as tel, killed_worker(3):
        records = list(iter_campaign(shard_config, workers=2))
        instances = sorted(s.attrs["index"] for s in tel.spans
                           if s.name == "campaign.instance")
        (run,) = [s for s in tel.spans if s.name == "campaign.run"]
    get_telemetry().reset()
    assert b"".join((record_to_json(r) + "\n").encode() for r in records) \
        == serial_reference
    assert instances == list(range(shard_config.n_instances))
    assert run.counts["instances"] == shard_config.n_instances
    assert run.counts["pool_restarts"] == 1


def test_injected_exception_propagates_without_restart(shard_config):
    # An exception raised by an instance is deterministic: a fresh pool
    # would raise it again, so it propagates as is.
    with tracing() as tel, failing_instance(1):
        with pytest.raises(RuntimeError, match="injected failure at instance 1"):
            list(iter_campaign(shard_config, workers=2))
        (run,) = [s for s in tel.spans if s.name == "campaign.run"]
    get_telemetry().reset()
    assert "pool_restarts" not in run.counts


def test_double_kill_same_shard_still_converges(
    tmp_path, shard_config, serial_reference
):
    # Shard 2 owns 4..5; instance 4 kills its worker on its first two
    # runs, which spends the whole restart budget and still converges.
    assert MAX_POOL_RESTARTS == 2
    base = tmp_path / "campaign.jsonl"
    with killed_worker(4, deaths=2):
        run_shard(shard_config, base, SHARDS, 2, workers=2)
    spool = shard_spool_path(base, 2, SHARDS)
    assert spool.read_bytes() == _shard_bytes(serial_reference, 4, 6)


def test_retry_budget_exhausted_keeps_partial_spools(
    tmp_path, shard_config, serial_reference
):
    # Instance 5 kills its worker on every run: after MAX_POOL_RESTARTS
    # fresh pools the run fails cleanly, and the records before it stay
    # checkpointed for a later resume.
    spool = tmp_path / "campaign.jsonl"
    with killed_worker(5, deaths=None):
        with pytest.raises(WorkerCrashError, match="died 3 times"):
            Pipeline(CampaignSource(shard_config, workers=2),
                     JsonlSink(spool)).run()
    completed = load_checkpoint(spool).completed
    assert 1 <= completed < shard_config.n_instances
    reference = serial_reference.splitlines(keepends=True)
    assert spool.read_bytes() == b"".join(reference[:completed])
    Pipeline(CampaignSource(shard_config, start=completed, workers=2),
             JsonlSink(spool, start=completed)).run()
    assert spool.read_bytes() == serial_reference


# ----------------------------------------------------------- the shards


def _run_victim(shard_config, base, shards, victim):
    run_shard(shard_config, base, shards, victim)


def test_four_shard_acceptance_scenario(
    tmp_path, shard_config, serial_reference
):
    # A 4-shard campaign whose busiest shard process is SIGKILLed after
    # its first record: rerun with resume=True, and the merge is exact.
    slices = [shard_bounds(shard_config.n_instances, 4, k) for k in range(4)]
    sizes = [hi - lo for lo, hi in slices]
    victim = sizes.index(max(sizes))
    lo, _ = slices[victim]
    base = tmp_path / "campaign.jsonl"
    with killed_worker(lo + 1):
        process = multiprocessing.get_context("fork").Process(
            target=_run_victim, args=(shard_config, base, 4, victim)
        )
        process.start()
        process.join(timeout=120)
    assert not process.is_alive()
    assert process.exitcode == -9
    spool = shard_spool_path(base, victim, 4)
    assert load_checkpoint(spool).completed == 1
    result = run_shard(shard_config, base, 4, victim, resume=True)
    assert result.resumed_at == 1
    for shard in range(4):
        if shard != victim:
            run_shard(shard_config, base, 4, shard)
    out = tmp_path / "merged.jsonl"
    merge_shards(shard_config, base, 4, out=out)
    assert out.read_bytes() == serial_reference


def test_in_process_crash_then_resume(tmp_path, shard_config, serial_reference):
    # Shard 1 owns 2..3: instance 3 raises after one record is
    # checkpointed, then resume=True finishes the spool.
    base = tmp_path / "campaign.jsonl"
    with failing_instance(3):
        with pytest.raises(RuntimeError, match="injected failure"):
            run_shard(shard_config, base, SHARDS, 1)
    result = run_shard(shard_config, base, SHARDS, 1, resume=True)
    assert result.resumed_at == 1
    spool = shard_spool_path(base, 1, SHARDS)
    assert spool.read_bytes() == _shard_bytes(serial_reference, 2, 4)


# ----------------------------------------------------------- CLI surface

CLI_ARGV = ["stream", "--instances", "6", "--seed", "77"]


@pytest.fixture(scope="module")
def cli_reference(tmp_path_factory):
    """The serial ``repro stream --sink`` spool for CLI_ARGV."""
    ref = tmp_path_factory.mktemp("cli") / "ref.jsonl"
    assert main(CLI_ARGV + ["--sink", str(ref)]) == 0
    return ref.read_bytes()


def test_cli_stream_with_kill_matches_serial_cli(
    tmp_path, cli_reference, capsys
):
    # NB: the CLI config defaults differ from shard_config (full-length
    # videos), so this compares CLI-vs-CLI, not against the fixture.
    out = tmp_path / "parallel.jsonl"
    with killed_worker(1):
        assert main(CLI_ARGV + ["--workers", "2", "--sink", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == cli_reference


def test_cli_budget_exhausted_is_domain_error(
    tmp_path, cli_reference, capsys
):
    # The last instance kills its worker on every run, so the ones
    # before it are spooled and checkpointed before the budget is spent.
    out = tmp_path / "parallel.jsonl"
    with killed_worker(5, deaths=None):
        code = main(CLI_ARGV + ["--workers", "2", "--sink", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "campaign workers died 3 times" in err
    assert "rerun with --resume" in err
    assert "Traceback" not in err
    assert load_checkpoint(out) is not None
    assert main(CLI_ARGV + ["--workers", "2", "--sink", str(out),
                            "--resume"]) == 0
    capsys.readouterr()
    assert out.read_bytes() == cli_reference
    assert not checkpoint_path(out).exists()


def test_cli_sigint_to_the_process_group_is_one_line(tmp_path):
    # Ctrl-C signals the whole foreground process group, pool workers
    # included.  Instance 1 hangs, so once instance 0 is spooled one
    # worker is busy and the other idle; an unguarded idle worker prints
    # a traceback of its own.  The sidecar is saved when the spool opens,
    # so wait for instance 0's checkpoint, not for the sidecar.
    out = tmp_path / "int.jsonl"
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(src.parent), env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        "from tests.oracles import stalled_instance\n"
        "with stalled_instance(1):\n"
        "    sys.exit(main(['stream', '--instances', '2', '--seed', '77',\n"
        f"                   '--workers', '2', '--sink', {str(out)!r}]))\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code], env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 120
        while getattr(load_checkpoint(out), "completed", 0) < 1:
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "no checkpoint in 120 s"
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err.decode() == "repro: interrupted\n"
    assert load_checkpoint(out).completed == 1
