#!/usr/bin/env python
"""Smoke-test sharded campaigns end to end, the way CI gates them.

Runs the real CLI: ``repro stream --sink`` writes the serial reference
spool, then four ``repro campaign --shards 4 --shard K`` processes run
side by side, the way four hosts would.  The busiest shard is SIGKILLed
from outside as soon as its checkpoint counts one record (the sidecar
itself appears when the spool opens); rerunning it with ``--resume``
must continue from that checkpoint, and ``--merge`` must produce a
spool **byte-identical** to the serial reference.  Exits non-zero on
any failure, so CI can run it as a gate.

Run:  python examples/shard_smoke.py [artifact-dir]

All spools, checkpoints and CLI outputs land in the artifact
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

from repro.pipeline.checkpoint import load_checkpoint
from repro.pipeline.shard import shard_bounds, shard_spool_path

INSTANCES = 8
SEED = 77
SHARDS = 4
#: how long to wait for the victim's first checkpointed record
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
    # The slices are a pure function of (n, shards), so the victim is
    # known before any process starts.
    sizes = [hi - lo for lo, hi in
             (shard_bounds(INSTANCES, SHARDS, k) for k in range(SHARDS))]
    victim = sizes.index(max(sizes))
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
    spool = shard_spool_path(mega, victim, SHARDS)
    deadline = time.monotonic() + CHECKPOINT_WAIT_S
    while getattr(load_checkpoint(spool), "completed", 0) < 1:
        if time.monotonic() > deadline:
            raise SystemExit(f"FAIL: no checkpoint from shard {victim}")
        time.sleep(0.01)
    os.kill(procs[victim].pid, signal.SIGKILL)
    for shard, proc in procs.items():
        stdout, stderr = proc.communicate()
        (workdir / f"shard{shard}.stdout.txt").write_text(stdout)
        (workdir / f"shard{shard}.stderr.txt").write_text(stderr)
        expected = -signal.SIGKILL if shard == victim else 0
        if proc.returncode != expected:
            print(stderr, file=sys.stderr)
            raise SystemExit(
                f"FAIL: shard {shard} exited {proc.returncode}, "
                f"expected {expected}"
            )
    completed = load_checkpoint(spool).completed
    print(f"    shard {victim} killed at checkpoint {completed} "
          f"of {sizes[victim]}")
    if completed >= sizes[victim]:
        raise SystemExit("FAIL: the victim finished before the SIGKILL")

    print("=== 3. Resume the killed shard ===")
    data = envelope(run_cli(
        shard_argv + ["--shard", str(victim), "--resume"],
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
