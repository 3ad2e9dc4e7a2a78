#!/usr/bin/env python
"""Smoke-test sharded campaigns end to end, the way CI gates them.

Runs the real CLI: ``repro stream --sink`` writes the serial reference
spool, then four ``repro campaign --shards 4 --shard K`` processes run
side by side, the way four hosts would.  The busiest shard is SIGKILLed
from outside as soon as its checkpoint sidecar appears; rerunning it
with ``--resume`` must continue from the checkpoint, and ``--merge``
must produce a spool **byte-identical** to the serial reference.  Exits
non-zero on any failure, so CI can run it as a gate.

Run:  python examples/shard_smoke.py [artifact-dir]

All spools, manifests, checkpoints and CLI outputs land in the artifact
directory (default: a temp dir) — CI uploads it on failure.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.pipeline.checkpoint import checkpoint_path, load_checkpoint
from repro.pipeline.shard import plan_shards, shard_spool_path
from repro.testbed.campaign import CampaignConfig

INSTANCES = 8
SEED = 77
SHARDS = 4
#: how long to wait for the victim's first checkpoint
CHECKPOINT_WAIT_S = 120.0


def cli_command(argv) -> list:
    return [sys.executable, "-m", "repro", *argv]


def cli_env() -> dict:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    return env


def run_cli(argv, workdir: Path, name: str) -> str:
    """Run ``python -m repro`` to completion; return its stdout."""
    print(f"$ repro {' '.join(argv)}")
    proc = subprocess.run(
        cli_command(argv), capture_output=True, text=True, env=cli_env(),
    )
    (workdir / f"{name}.stdout.txt").write_text(proc.stdout)
    (workdir / f"{name}.stderr.txt").write_text(proc.stderr)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"FAIL: {name} exited {proc.returncode}")
    return proc.stdout


def envelope(stdout: str) -> dict:
    payload = json.loads(stdout)
    assert payload["schema"] == "repro-campaign-shard-v1", payload["schema"]
    return payload["data"]


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="shard-smoke-")
    )
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"=== artifacts in {workdir} ===")
    size = ["--instances", str(INSTANCES), "--seed", str(SEED)]

    print(f"=== 1. Serial reference ({INSTANCES} instances) ===")
    ref = workdir / "ref.jsonl"
    run_cli(["stream", *size, "--sink", str(ref)], workdir, "serial")

    print(f"=== 2. {SHARDS} shard processes, the busiest SIGKILLed ===")
    # The partition is a pure function of (seed, n, shards), so the
    # victim is known before any process starts.
    config = CampaignConfig(n_instances=INSTANCES, seed=SEED)
    manifests = plan_shards(config, SHARDS)
    victim = max(manifests, key=lambda m: len(m.indices))
    mega = workdir / "mega.jsonl"
    shard_argv = ["campaign", *size, "--shards", str(SHARDS),
                  "--out", str(mega), "--json"]
    procs = {}
    for shard in range(SHARDS):
        print(f"$ repro {' '.join(shard_argv)} --shard {shard} &")
        procs[shard] = subprocess.Popen(
            cli_command(shard_argv + ["--shard", str(shard)]),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=cli_env(),
        )
    sidecar = checkpoint_path(shard_spool_path(mega, victim.shard, SHARDS))
    deadline = time.monotonic() + CHECKPOINT_WAIT_S
    while not sidecar.exists():
        if time.monotonic() > deadline:
            raise SystemExit(f"FAIL: no checkpoint from shard {victim.shard}")
        time.sleep(0.01)
    os.kill(procs[victim.shard].pid, signal.SIGKILL)
    for shard, proc in procs.items():
        stdout, stderr = proc.communicate()
        (workdir / f"shard{shard}.stdout.txt").write_text(stdout)
        (workdir / f"shard{shard}.stderr.txt").write_text(stderr)
        expected = -signal.SIGKILL if shard == victim.shard else 0
        if proc.returncode != expected:
            print(stderr, file=sys.stderr)
            raise SystemExit(
                f"FAIL: shard {shard} exited {proc.returncode}, "
                f"expected {expected}"
            )
    completed = load_checkpoint(
        shard_spool_path(mega, victim.shard, SHARDS)
    ).completed
    print(f"    shard {victim.shard} killed at checkpoint {completed} "
          f"of {len(victim.indices)}")
    if completed >= len(victim.indices):
        raise SystemExit("FAIL: the victim finished before the SIGKILL")

    print("=== 3. Resume the killed shard ===")
    data = envelope(run_cli(
        shard_argv + ["--shard", str(victim.shard), "--resume"],
        workdir, "resume",
    ))
    if data["resumed_at"] != completed:
        raise SystemExit(
            f"FAIL: resumed at {data['resumed_at']}, checkpoint said "
            f"{completed}"
        )
    print(f"    resumed at {data['resumed_at']}, {data['records']} records")

    print("=== 4. Merged spool is byte-identical to the serial "
          "reference ===")
    data = envelope(run_cli(
        ["campaign", *size, "--shards", str(SHARDS), "--merge",
         "--out", str(mega), "--json"],
        workdir, "merge",
    ))
    ref_bytes, mega_bytes = ref.read_bytes(), mega.read_bytes()
    if data["records"] != INSTANCES or mega_bytes != ref_bytes:
        raise SystemExit(
            f"FAIL: merged spool differs from serial reference "
            f"({len(mega_bytes)} vs {len(ref_bytes)} bytes) — "
            f"see {workdir}"
        )
    print(f"    {len(ref_bytes)} bytes, {INSTANCES} records: identical")
    print("PASS: sharded smoke")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
