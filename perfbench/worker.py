"""The process doing the work of the in-process workloads.

``python3 -m perfbench.worker <workload> <seed> <seconds-or-rounds>
<mode>`` imports ``repro``, finishes its set-up, prints ``READY`` and —
unless ``mode`` is ``setup`` — runs the timed workload, then prints one
JSON result line.  ``mode`` ``trace`` also runs the workload with the
layer wrappers of :mod:`perfbench.timers` installed.

* ``campaign``: ``rounds`` rounds of one record per stratum, each
  stratum a ``iter_campaign(config, workers=1)`` stream, every record
  spooled with ``record_to_json``.  The work is fixed per seed, so a
  traced run simulates the same sessions twice: untraced, then traced.
* ``spool_diagnose``: replays the seed's spool through
  ``Pipeline(JsonlSource, DiagnoseStage(chunk=64))`` for ``seconds``,
  encoding every report with ``to_dict`` and ``api.canonical_json``.  A
  traced run alternates untraced and traced slices of the replay.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import timers
from perfbench.inputs import SeedInputs, campaign_configs, seed_inputs
from repro import api
from repro.core.diagnosis import RootCauseAnalyzer
from repro.pipeline import DiagnoseStage, JsonlSource, Pipeline
from repro.pipeline.records import record_from_json, record_to_json
from repro.testbed.campaign import iter_campaign
from repro.video.catalog import VideoCatalog

clock = timers.clock
CHUNK = 64
#: alternating untraced/traced slices of a traced spool replay
TRACE_SLICES = 4


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def ready() -> None:
    print("READY", flush=True)


# -------------------------------------------------------------------- campaign


def campaign_pass(configs: List[object], spool: Path, rounds: int) -> Dict[str, object]:
    """Simulate and spool ``rounds`` rounds; one latency per record."""
    streams = [iter_campaign(config, workers=1) for config in configs]
    latencies: List[float] = []
    write_s = 0.0
    start = clock()
    with spool.open("w", encoding="utf-8") as fh:
        for _ in range(rounds):
            for stream in streams:
                t0 = clock()
                record = next(stream)
                t1 = clock()
                fh.write(record_to_json(record) + "\n")
                fh.flush()
                t2 = clock()
                write_s += t2 - t1
                latencies.append(t2 - t0)
    return {"rows": len(latencies), "elapsed": clock() - start,
            "latencies": latencies, "write_s": write_s}


def run_campaign(inputs: SeedInputs, rounds: int, mode: str) -> Dict[str, object]:
    configs = campaign_configs(inputs.seed, rounds)
    VideoCatalog(size=configs[0].catalog_size, seed=configs[0].seed)
    ready()
    if mode == "setup":
        return {}
    spool = inputs.directory / "campaign.jsonl"
    result: Dict[str, object] = {"untraced": campaign_pass(configs, spool, rounds),
                                 "spool": str(spool)}
    if mode == "trace":
        accs: Dict[str, timers.Acc] = {}
        events: Dict[str, int] = {}
        undo = timers.install_campaign(accs, events)
        try:
            result["traced"] = campaign_pass(configs, spool, rounds)
        finally:
            for restore in undo:
                restore()
        result["layers"] = {name: acc.to_dict() for name, acc in accs.items()}
        result["events"] = events
    return result


# --------------------------------------------------------------- spool replay


def diagnose_pass(analyzer: RootCauseAnalyzer, spool: Path, seconds: float,
                  encode_acc: Optional[timers.Acc] = None) -> Dict[str, object]:
    """Replay the spool until ``seconds`` pass; one latency per 64-row chunk.

    Every full pass over the spool yields the sha256 of its encoded reports.
    """
    latencies: List[float] = []
    digests: List[str] = []
    start = chunk_t = clock()
    deadline = start + seconds
    while chunk_t < deadline:
        digest = hashlib.sha256()
        flow = iter(Pipeline(JsonlSource(spool), DiagnoseStage(analyzer, chunk=CHUNK)))
        try:
            for index, item in enumerate(flow, 1):
                t0 = clock()
                line = api.canonical_json(item.report.to_dict())
                if encode_acc is not None:
                    encode_acc.add(clock() - t0)
                digest.update(line.encode("utf-8") + b"\n")
                if index % CHUNK == 0:
                    now = clock()
                    latencies.append(now - chunk_t)
                    chunk_t = now
                    if now >= deadline:
                        break
            else:
                digests.append(digest.hexdigest())
        finally:
            flow.close()
    return {"rows": CHUNK * len(latencies), "elapsed": chunk_t - start,
            "latencies": latencies, "pass_digests": digests}


def merge_passes(passes: List[Dict[str, object]]) -> Dict[str, object]:
    """One pass result made of consecutive slices."""
    return {
        "rows": sum(p["rows"] for p in passes),
        "elapsed": sum(p["elapsed"] for p in passes),
        "latencies": [s for p in passes for s in p["latencies"]],
        "pass_digests": [d for p in passes for d in p["pass_digests"]],
    }


def reference_digest(analyzer: RootCauseAnalyzer, spool: Path) -> str:
    """sha256 of ``diagnose_batch`` over the whole spool held in memory."""
    with spool.open(encoding="utf-8") as fh:
        records = [record_from_json(line) for line in fh if line.strip()]
    digest = hashlib.sha256()
    for report in analyzer.diagnose_batch(records):
        digest.update(api.canonical_json(report.to_dict()).encode("utf-8") + b"\n")
    return digest.hexdigest()


def run_diagnose(inputs: SeedInputs, seconds: float, mode: str) -> Dict[str, object]:
    analyzer = api.load_analyzer(path=inputs.model)
    with inputs.spool.open(encoding="utf-8") as fh:
        warm = [record_from_json(next(fh)) for _ in range(CHUNK)]
    for report in analyzer.diagnose_batch(warm):
        api.canonical_json(report.to_dict())
    ready()
    if mode == "setup":
        return {}
    if mode != "trace":
        result: Dict[str, object] = {
            "untraced": diagnose_pass(analyzer, inputs.spool, seconds)}
    else:
        # Untraced and traced slices alternate, so machine-speed drift
        # during the run lands on both sides of the tracing overhead.
        accs: Dict[str, timers.Acc] = {"core.encode": timers.Acc()}
        compiled: Dict[str, int] = {}
        untraced, traced = [], []
        for _ in range(TRACE_SLICES):
            untraced.append(diagnose_pass(analyzer, inputs.spool, seconds / TRACE_SLICES))
            undo = timers.install_diagnose(accs, compiled)
            try:
                traced.append(diagnose_pass(analyzer, inputs.spool,
                                            seconds / TRACE_SLICES, accs["core.encode"]))
            finally:
                for restore in undo:
                    restore()
        result = {"untraced": merge_passes(untraced), "traced": merge_passes(traced),
                  "layers": {name: acc.to_dict() for name, acc in accs.items()},
                  "compiled": compiled}
    result["reference_digest"] = reference_digest(analyzer, inputs.spool)
    return result


def main(argv: List[str]) -> int:
    workload, seed, amount, mode = argv
    inputs = seed_inputs(int(seed))
    if workload == "campaign":
        result = run_campaign(inputs, int(amount), mode)
    else:
        result = run_diagnose(inputs, float(amount), mode)
    if mode != "setup":
        result["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
