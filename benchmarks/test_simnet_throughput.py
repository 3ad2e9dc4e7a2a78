"""Simnet fast-path throughput benchmark with a committed baseline.

Measures the three numbers the scheduler/RNG/pooling rework is judged
by: event-loop events/sec at a realistic queue depth (hundreds of
concurrent timers, mixed ``post``/``schedule`` tiers -- a single
self-rescheduling timer would measure only dispatch overhead and hide
the calendar queue's insertion win), campaign records/sec at
``workers=1``, and the campaign's peak RSS in a forked child.  A
sharded sweep then times the full sharded contract — ``orchestrate``
(shard subprocesses + supervision) plus ``merge_shards`` — at 1 and 4
shards (``sharded_campaign`` in the JSON, trend-only;
``REPRO_SIMNET_BENCH_SESSIONS`` sizes its campaign).

Results land twice: ``benchmarks/reports/simnet_throughput.txt`` for
humans and ``BENCH_simnet.json`` at the repo root for machines.  The
committed JSON doubles as the regression baseline -- the run fails if
events/sec or campaign records/sec drops more than
``REPRO_SIMNET_REGRESSION_MAX`` (default 0.20) below it.  Workload knobs for CI: ``REPRO_SIMNET_BENCH_EVENTS``
and ``REPRO_SIMNET_BENCH_INSTANCES``.
"""

import json
import multiprocessing
import os
import platform
import resource
import tempfile
import time
from pathlib import Path

import pytest

from repro.pipeline import OrchestratorSettings, merge_shards, orchestrate
from repro.simnet.engine import Simulator
from repro.testbed.campaign import CampaignConfig, run_campaign

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_simnet.json"

_DEPTH = 512


def _event_loop_run(total):
    """Dispatch ``total`` events with ~_DEPTH timers always pending."""
    sim = Simulator(seed=3)
    count = [0]

    def tick(i):
        count[0] += 1
        if count[0] + _DEPTH <= total:
            if i & 7:  # ~7/8 fire-and-forget, ~1/8 cancellable tier
                sim.post(0.001 + (i & 3) * 2.5e-4, tick, i)
            else:
                sim.schedule(0.001 + (i & 3) * 2.5e-4, tick, i)

    for i in range(_DEPTH):
        sim.post(i * 1e-5, tick, i)
    sim.run()
    return count[0]


def _campaign_in_child(config):
    """Run the campaign in a forked child: clean RSS baseline."""
    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()

    def task():
        start = time.perf_counter()
        records = run_campaign(config, workers=1)
        elapsed = time.perf_counter() - start
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        queue.put((len(records), elapsed, rss_kb))

    proc = ctx.Process(target=task)
    proc.start()
    measurement = queue.get()
    proc.join()
    assert proc.exitcode == 0
    return measurement


def test_simnet_throughput(report):
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        pytest.skip("needs fork for the RSS measurement")
    total = int(os.environ.get("REPRO_SIMNET_BENCH_EVENTS", "300000"))
    instances = int(os.environ.get("REPRO_SIMNET_BENCH_INSTANCES", "6"))
    max_regress = float(os.environ.get("REPRO_SIMNET_REGRESSION_MAX", "0.20"))
    baseline = (
        json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else None
    )

    # -- event loop: best of 3 interleaved repeats --------------------------
    loop_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fired = _event_loop_run(total)
        loop_s = min(loop_s, time.perf_counter() - start)
    assert fired == total
    events_per_sec = fired / loop_s

    # -- campaign: wall clock and peak RSS in a forked child ----------------
    config = CampaignConfig(n_instances=instances, seed=123,
                            video_duration_range=(8.0, 10.0))
    n_records, campaign_s, rss_kb = _campaign_in_child(config)
    assert n_records == instances
    records_per_sec = n_records / campaign_s

    # -- sharded campaign sweep: supervised shards, merged spool ------------
    sweep_n = int(os.environ.get("REPRO_SIMNET_BENCH_SESSIONS", "16"))
    sweep_config = CampaignConfig(n_instances=sweep_n, seed=123,
                                  video_duration_range=(8.0, 10.0))
    # Wall clock covers the whole contract (orchestrate + merge), so the
    # numbers are comparable to the serial spool path.  Trend-only: shard
    # subprocess fan-out wobbles across runner classes, so the delta is
    # printed but never gates.
    shard_sweep = []
    with tempfile.TemporaryDirectory() as td:
        for shards in (1, 4):
            base = Path(td) / f"campaign-{shards:02d}.jsonl"
            start = time.perf_counter()
            run = orchestrate(
                sweep_config, base, shards,
                settings=OrchestratorSettings(poll_interval=0.02),
            )
            assert run.ok
            merged = merge_shards(base, shards)
            elapsed = time.perf_counter() - start
            assert merged.records == sweep_n
            shard_sweep.append({
                "shards": shards,
                "records_per_sec": round(sweep_n / elapsed, 4),
            })

    result = {
        "schema": 1,
        "event_loop": {
            "depth": _DEPTH,
            "events": fired,
            "events_per_sec": round(events_per_sec, 1),
        },
        "campaign": {
            "workers": 1,
            "instances": instances,
            "records_per_sec": round(records_per_sec, 4),
        },
        "sharded_campaign": {
            "instances": sweep_n,
            "sweep": shard_sweep,
        },
        "peak_rss_kb": rss_kb,
        "python": platform.python_version(),
    }
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")

    lines = [
        "simnet fast-path throughput",
        f"  event loop   {events_per_sec / 1e3:8.0f}k events/s   "
        f"({fired} events, depth {_DEPTH}, best of 3)",
        f"  campaign     {records_per_sec:8.3f} records/s   "
        f"({instances} instances, workers=1)",
        f"  peak RSS     {rss_kb / 1024:8.1f} MB (campaign child)",
    ]
    for row in shard_sweep:
        lines.append(
            f"  sharded      {row['records_per_sec']:8.3f} records/s   "
            f"({row['shards']} shard(s) of {sweep_n} instances, "
            "orchestrate + merge)"
        )
    if baseline is not None and baseline.get("sharded_campaign"):
        base_rows = {
            row["shards"]: row["records_per_sec"]
            for row in baseline["sharded_campaign"]["sweep"]
        }
        for row in shard_sweep:
            base_rps = base_rows.get(row["shards"])
            if base_rps:
                lines.append(
                    f"  sharded base {base_rps:8.3f} records/s   "
                    f"({row['shards']} shard(s), delta "
                    f"{row['records_per_sec'] / base_rps - 1.0:+.1%}, "
                    "trend only)"
                )
    if baseline is not None:
        base_eps = baseline["event_loop"]["events_per_sec"]
        lines.append(
            f"  baseline     {base_eps / 1e3:8.0f}k events/s   "
            f"(delta {events_per_sec / base_eps - 1.0:+.1%}, "
            f"floor -{max_regress:.0%})"
        )
        base_campaign = baseline["campaign"]["records_per_sec"]
        lines.append(
            f"  baseline     {base_campaign:8.3f} records/s   "
            f"(delta {records_per_sec / base_campaign - 1.0:+.1%}, "
            f"floor -{max_regress:.0%})"
        )
    report("simnet_throughput", "\n".join(lines))

    if baseline is not None:
        floor = baseline["event_loop"]["events_per_sec"] * (1.0 - max_regress)
        assert events_per_sec >= floor, (
            f"event loop at {events_per_sec:.0f} events/s regressed past "
            f"{floor:.0f} (baseline {baseline['event_loop']['events_per_sec']:.0f}, "
            f"budget -{max_regress:.0%})"
        )
        base_campaign = baseline["campaign"]["records_per_sec"]
        rps_floor = base_campaign * (1.0 - max_regress)
        assert records_per_sec >= rps_floor, (
            f"campaign at {records_per_sec:.3f} records/s regressed past "
            f"{rps_floor:.3f} (baseline {base_campaign:.3f}, "
            f"budget -{max_regress:.0%})"
        )
