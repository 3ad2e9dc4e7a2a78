"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``BENCHMARK.json`` for why each exists):

``campaign``
    Controlled campaign sessions simulated through ``iter_campaign`` and
    spooled with ``record_to_json``, in a worker process.
``spool_diagnose``
    The ``repro stream --source ... --diagnose`` path over a JSONL spool,
    every report encoded with ``to_dict`` and ``api.canonical_json``.
``serve_fleet``
    ``python -m repro serve`` in a subprocess; one closed-loop keep-alive
    connection posting 64-record requests.
``serve_session``
    The same server; seeded Poisson arrivals of 1-record requests at
    ``SESSION_RATE`` per second over two connections (open loop).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work both untraced and traced, and prints the per-layer metrics, the
``layers`` budget and the tracing overhead.  Every run checks its
outputs; a failed check makes ``correct`` false and the exit code 1.
``rows_s`` is the rate of the fast unit of work (campaign record, spool
chunk, fleet request; see ``perfbench.stats.fast``), the delivered rate
on the open loop; ``p10_ms`` the fast operation.  The median and the
tail, the highest percentile (up to ``TAIL_PCT``) with at least ten
samples beyond it, are printed in the notes only: on a shared host they
move with the speed of the host.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("campaign", "spool_diagnose", "serve_fleet", "serve_session")
#: tail percentile printed in the notes (lowered if a run cannot support
#: it).  Not gated: on a shared box, stalls of the whole VM hit a few
#: percent of operations, which made p99 swing 2-4x from run to run and
#: moved the median of ten runs' p90 by 30% between two sets of runs.
TAIL_PCT = 99.0
#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 7
#: campaign rounds (one record per stratum) per second of --seconds
CAMPAIGN_ROUNDS_PER_S = 1.75
#: open-loop arrival rate of serve_session, requests per second.  Two
#: connections at ~5 ms per request carry ~400/s; when the shared box runs
#: 2-3x slower that drops towards 150/s, so the rate keeps 3x headroom
#: (at 150/s the generator queued behind busy connections and p90 rose 10x).
SESSION_RATE = 50.0
#: connections used by serve_session (at most the 2 cores of the target box)
SESSION_CONNECTIONS = 2
#: requests sent before timing starts, per serve workload
WARMUP_REQUESTS = {"serve_fleet": 2, "serve_session": 16}
#: consecutive groups the traced samples are cut into for ``layers.spread``
REPEATS = 5

#: layers of the ``layers`` budget, per workload, in reporting order
LAYERS = {
    "campaign": ("testbed.build", "testbed.session", "probes.readout",
                 "pipeline.spool_write"),
    "spool_diagnose": ("pipeline.json", "pipeline.record", "core.diagnose",
                       "core.encode"),
    "serve_fleet": ("serve.parse", "api.coerce", "serve.batch_wait",
                    "core.diagnose", "api.encode", "serve.transport"),
}
LAYERS["serve_session"] = LAYERS["serve_fleet"]

#: per-layer metrics and their units; a layer a workload lacks reads 0
PER_LAYER_UNITS: Dict[str, str] = {
    "testbed.session_s": "s", "testbed.build_ms": "ms", "simnet.events": "count",
    "simnet.us_per_event": "us", "probes.readout_ms": "ms",
    "pipeline.spool_write_ms": "ms", "pipeline.json_us": "us",
    "pipeline.record_us": "us", "core.diagnose_us": "us",
    "core.predict_rows_us": "us", "core.compiled_share": "fraction",
    "core.encode_us": "us", "serve.parse_ms": "ms", "api.coerce_ms": "ms",
    "serve.batch_wait_ms": "ms", "serve.batch_records": "records",
    "serve.flush_timer_share": "fraction", "core.diagnose_ms": "ms",
    "api.encode_ms": "ms", "serve.server_ms": "ms", "serve.transport_ms": "ms",
    "loadgen.lag_ms": "ms", "layers.end_to_end_ms": "ms",
    "layers.unattributed_ms": "ms", "layers.unattributed_share": "fraction",
    "layers.repeats": "count", "layers.spread": "fraction",
    "layers.tracing_overhead": "fraction",
}
for _loc in ("none", "mobile", "lan", "wan"):
    PER_LAYER_UNITS[f"testbed.session_s.{_loc}"] = "s"
    PER_LAYER_UNITS[f"simnet.events.{_loc}"] = "count"
for _layer in sorted({name for names in LAYERS.values() for name in names}):
    PER_LAYER_UNITS[f"share.{_layer}"] = "fraction"

clock = time.perf_counter


class RunError(RuntimeError):
    """The workload could not run to completion."""


# ----------------------------------------------------------------- processes


def child_env() -> Dict[str, str]:
    """The environment of every child: repro and perfbench importable."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))


def _child_setup() -> None:
    """In the child, before exec: SIGKILL me if the harness dies first."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Child:
    """A child process whose stdout is read line by line with deadlines."""

    def __init__(self, argv: Sequence[str], log: Path) -> None:
        self.log = log.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=self.log, bufsize=0,
            preexec_fn=_child_setup,
        )
        self._buf = b""

    def line(self, timeout: float) -> str:
        """The next stdout line; raises RunError on EOF or timeout."""
        deadline = clock() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - clock()
            if remaining <= 0:
                raise RunError(f"no output from {self.proc.args[1:3]} in {timeout}s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise RunError(f"{self.proc.args[1:3]} exited early; "
                                   f"see {self.log.name}")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode("utf-8")

    def rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for row in status.splitlines():
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) / 1024.0
        raise RunError("no VmHWM for child")

    def stop(self, sig: int = signal.SIGTERM, timeout: float = 30.0) -> int:
        """Signal (if still running) and reap; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


# ----------------------------------------------------------- worker workloads


def run_worker(workload: str, seed: int, amount: float, mode: str,
               scratch: Path) -> Tuple[float, Dict[str, object]]:
    """One worker process: ``(set-up seconds, result)``; no result for ``setup``."""
    t0 = clock()
    child = Child(["-m", "perfbench.worker", workload, str(seed), str(amount), mode],
                  scratch / f"{workload}-{mode}.log")
    try:
        while child.line(300.0) != "READY":
            pass
        setup_s = clock() - t0
        result: Dict[str, object] = {}
        if mode != "setup":
            result = json.loads(child.line(amount * 6 + 170.0))
        code = child.proc.wait(60)
    finally:
        child.stop(signal.SIGKILL)
    if code != 0:
        raise RunError(f"{workload} worker exited {code}")
    return setup_s, result


def setup_median(first: float, again: Callable[[], float]) -> float:
    return statistics.median([first] + [again() for _ in range(SETUP_REPEATS - 1)])


def run_campaign(seed: int, seconds: float, trace: bool, scratch: Path) -> "Outcome":
    from perfbench.checks import check_campaign
    from perfbench.inputs import seed_inputs
    from repro.pipeline.records import record_from_json, record_to_json

    rounds = max(3, round(seconds * CAMPAIGN_ROUNDS_PER_S))  # >10 records: a tail
    setup_s, res = run_worker("campaign", seed, rounds, "trace" if trace else "run",
                              scratch)
    if not trace:
        setup_s = setup_median(setup_s, lambda: run_worker(
            "campaign", seed, rounds, "setup", scratch)[0])
    spool = Path(str(res["spool"]))
    digest = hashlib.sha256(spool.read_bytes()).hexdigest()
    recorded_path = seed_inputs(seed).campaign_digest(rounds)
    recorded = recorded_path.read_text().strip() if recorded_path.exists() else None
    problems = check_campaign(spool.read_text(encoding="utf-8").splitlines(), digest,
                              recorded, lambda line: record_to_json(record_from_json(line)))
    if recorded is None and not problems:
        recorded_path.write_text(digest + "\n")
    untraced = res["untraced"]
    out = Outcome("campaign", untraced, problems, setup_s, float(res["peak_rss_mb"]))
    out.units = list(untraced["latencies"])
    out.notes.append(f"campaign rounds={rounds} spool_sha256={digest} "
                     f"recorded={'new' if recorded is None else 'match'}")
    if trace:
        out.per_layer.update(campaign_layers(res, untraced))
    return out


def campaign_layers(res: Dict[str, object], untraced: Dict[str, object]) -> Dict[str, float]:
    traced: Dict[str, object] = res["traced"]
    acc: Dict[str, Dict[str, object]] = res["layers"]
    events: Dict[str, int] = res["events"]
    rows = int(traced["rows"])
    total = lambda name: float(acc[name]["total"])  # noqa: E731
    calls = lambda name: int(acc[name]["calls"])  # noqa: E731
    session_s = sum(total(f"testbed.session.{loc}") for loc in events)
    n_events = sum(events.values())
    m: Dict[str, float] = {
        "testbed.session_s": session_s / rows,
        "testbed.build_ms": 1e3 * total("testbed.build") / max(1, calls("testbed.build")),
        "simnet.events": float(n_events),
        "simnet.us_per_event": 1e6 * session_s / max(1, n_events),
        "probes.readout_ms": 1e3 * total("probes.readout") / rows,
        "pipeline.spool_write_ms": 1e3 * float(traced["write_s"]) / rows,
    }
    for loc, count in events.items():
        name = f"testbed.session.{loc}"
        m[f"testbed.session_s.{loc}"] = total(name) / max(1, calls(name))
        m[f"simnet.events.{loc}"] = float(count)
    layers = {
        "testbed.build": total("testbed.build") / rows,
        "testbed.session": (session_s - total("probes.readout")) / rows,
        "probes.readout": total("probes.readout") / rows,
        "pipeline.spool_write": float(traced["write_s"]) / rows,
    }
    # one repeat per round: every round simulates one record of each stratum
    latencies = traced["latencies"]
    rounds = [latencies[i:i + len(events)] for i in range(0, rows, len(events))]
    m.update(budget(float(traced["elapsed"]) / rows,
                    float(untraced["elapsed"]) / int(untraced["rows"]),
                    layers, [statistics.fmean(r) for r in rounds]))
    return m


def run_spool_diagnose(seed: int, seconds: float, trace: bool, scratch: Path) -> "Outcome":
    from perfbench.checks import check_spool_diagnose
    from perfbench.stats import split_repeats

    setup_s, res = run_worker("spool_diagnose", seed, seconds,
                              "trace" if trace else "run", scratch)
    if not trace:
        setup_s = setup_median(setup_s, lambda: run_worker(
            "spool_diagnose", seed, seconds, "setup", scratch)[0])
    untraced: Dict[str, object] = res["untraced"]
    digests = list(untraced["pass_digests"])
    if trace:
        digests += list(res["traced"]["pass_digests"])
    problems = check_spool_diagnose(digests, str(res["reference_digest"]))
    out = Outcome("spool_diagnose", untraced, problems, setup_s, float(res["peak_rss_mb"]))
    out.units, out.unit_rows = list(untraced["latencies"]), 64
    out.notes.append(f"spool passes={len(digests)} reference={res['reference_digest']}")
    if trace:
        traced: Dict[str, object] = res["traced"]
        acc: Dict[str, Dict[str, object]] = res["layers"]
        compiled: Dict[str, int] = res["compiled"]
        rows = int(traced["rows"])
        total = lambda name: float(acc[name]["total"])  # noqa: E731
        calls = lambda name: max(1, int(acc[name]["calls"]))  # noqa: E731
        json_s = total("pipeline.decode") - total("pipeline.record")
        out.per_layer.update({
            "pipeline.json_us": 1e6 * json_s / calls("pipeline.decode"),
            "pipeline.record_us": 1e6 * total("pipeline.record") / calls("pipeline.record"),
            "core.diagnose_us": 1e6 * total("core.diagnose") / rows,
            "core.predict_rows_us": 1e6 * total("core.predict_rows") / rows,
            "core.compiled_share": compiled["planned"] / max(1, compiled["calls"]),
            "core.encode_us": 1e6 * total("core.encode") / calls("core.encode"),
        })
        layers = {
            "pipeline.json": json_s / rows,
            "pipeline.record": total("pipeline.record") / rows,
            "core.diagnose": total("core.diagnose") / rows,
            "core.encode": total("core.encode") / rows,
        }
        repeats = [statistics.fmean(part) / 64
                   for part in split_repeats(traced["latencies"], REPEATS)]
        out.per_layer.update(budget(float(traced["elapsed"]) / rows,
                                    float(untraced["elapsed"]) / int(untraced["rows"]),
                                    layers, repeats))
    return out


# ------------------------------------------------------------ serve workloads


class Server:
    """A diagnosis server subprocess, ready once ``/readyz`` answers 200."""

    def __init__(self, argv: Sequence[str], log: Path) -> None:
        t0 = clock()
        self.child = Child(argv, log)
        try:
            first = json.loads(self.child.line(120.0))
            self.port = int(first.get("port") or first["data"]["port"])
            deadline = clock() + 120.0
            while not self._ready():
                if clock() > deadline:
                    raise RunError("server never became ready")
                time.sleep(0.002)
        except BaseException:
            self.child.stop(signal.SIGKILL)
            raise
        self.setup_s = clock() - t0

    def _ready(self) -> bool:
        from perfbench.loadgen import fetch_json

        try:
            status, _ = asyncio.run(fetch_json("127.0.0.1", self.port, "/readyz"))
        except (OSError, ValueError):
            return False
        return status == 200

    async def batcher(self) -> Dict[str, int]:
        from perfbench.loadgen import fetch_json

        status, body = await fetch_json("127.0.0.1", self.port, "/v1/models")
        if status != 200:
            raise RunError(f"/v1/models answered {status}")
        return dict(body["batcher"])

    def stop(self) -> None:
        code = self.child.stop(signal.SIGTERM)
        if code != 0:
            raise RunError(f"server exited {code} after drain")


def serve_argv(model: Path) -> List[str]:
    return ["-m", "repro", "serve", "--model", str(model), "--port", "0", "--json"]


class ServeInputs:
    """Pre-encoded requests and the offline answers they must get."""

    def __init__(self, workload: str, spool: Path, model: Path) -> None:
        from perfbench.loadgen import encode_request
        from repro import api
        from repro.core.diagnosis import RootCauseAnalyzer
        from repro.pipeline.records import record_from_json

        lines = spool.read_bytes().splitlines()
        size = 64 if workload == "serve_fleet" else 1
        schema = api.REQUEST_SCHEMA.encode("ascii")
        analyzer = RootCauseAnalyzer.load(model)
        self.rows_per_request = size
        self.requests: List[bytes] = []
        self.expected: List[str] = []
        for start in range(0, len(lines), size):
            window = lines[start:start + size]
            body = b'{"records":[' + b",".join(window) + b'],"schema":"' + schema + b'"}'
            self.requests.append(encode_request("POST", "/v1/diagnose", body))
            records = [record_from_json(line.decode("utf-8")) for line in window]
            self.expected.append(api.canonical_json(
                [report.to_dict() for report in analyzer.diagnose_batch(records)]))
        self.first: Dict[int, bytes] = {}
        self.divergent = 0

    def observe(self, index: int, body: bytes) -> None:
        seen = self.first.setdefault(index, body)
        if seen is not body and seen != body:
            self.divergent += 1


def serve_pass(workload: str, argv: Sequence[str], inputs: ServeInputs, seconds: float,
               seed: int, log: Path,
               on_ready: Callable[[Server], None] = lambda server: None,
               ) -> Dict[str, object]:
    """Start a server, warm it up, call ``on_ready``, load it for ``seconds``, stop it.

    The batcher statistics returned cover the timed load only.
    """
    from perfbench import loadgen

    server = Server(argv, log)

    async def main() -> Dict[str, object]:
        n_conns = 1 if workload == "serve_fleet" else SESSION_CONNECTIONS
        conns = [loadgen.Connection("127.0.0.1", server.port) for _ in range(n_conns)]

        async def send(conn: loadgen.Connection, index: int) -> int:
            status, body = await conn.request(inputs.requests[index])
            if status == 200:
                inputs.observe(index, body)
            return status

        try:
            for index in range(WARMUP_REQUESTS[workload]):
                await send(conns[0], index % len(inputs.requests))
            on_ready(server)
            before = await server.batcher()
            n = len(inputs.requests)
            if workload == "serve_fleet":
                load = await loadgen.closed_loop(send, conns[0], n, seconds,
                                                loadgen.Connection.close)
            else:
                due = loadgen.poisson_schedule(SESSION_RATE, seconds, seed)
                load = await loadgen.open_loop(send, conns, due, n,
                                              loadgen.Connection.close)
            after = await server.batcher()
        finally:
            for conn in conns:
                await conn.close()
        return {"load": load,
                "batcher": {k: after[k] - before.get(k, 0) for k in after}}

    try:
        result = asyncio.run(main())
        result["rss"] = server.child.rss_mb()
    except BaseException:
        server.child.stop(signal.SIGKILL)
        raise
    server.stop()
    result["setup_s"] = server.setup_s
    return result


def run_serve(workload: str, seed: int, seconds: float, trace: bool,
              scratch: Path) -> "Outcome":
    from perfbench.checks import check_served
    from perfbench.inputs import seed_inputs
    from repro import api

    paths = seed_inputs(seed)
    inputs = ServeInputs(workload, paths.spool, paths.model)

    def plain(secs: float) -> Dict[str, object]:
        return serve_pass(workload, serve_argv(paths.model), inputs, secs, seed,
                          scratch / "serve.log")

    if not trace:
        run = plain(seconds)
        untimed = loads = [run["load"]]

        def again() -> float:
            server = Server(serve_argv(paths.model), scratch / "setup.log")
            server.stop()
            return server.setup_s

        setup_s = setup_median(float(run["setup_s"]), again)
    else:
        # untraced halves on both sides of the traced pass, so a drift of
        # machine speed during the run weighs on both sides of the overhead
        dump = scratch / "launcher.json"

        def reset(server: Server) -> None:
            server.child.proc.send_signal(signal.SIGUSR1)
            while server.child.line(30.0) != "RESET":
                pass

        run = plain(seconds / 2)
        traced = serve_pass(workload, ["-m", "perfbench.serve_launcher",
                                       str(paths.model), str(dump)],
                            inputs, seconds, seed, scratch / "launcher.log", reset)
        untimed = [run["load"], plain(seconds / 2)["load"]]
        loads = untimed + [traced["load"]]
        setup_s = float(run["setup_s"])
    latencies = [s for load in untimed for s in load.latencies]
    untraced = {"rows": len(latencies) * inputs.rows_per_request,
                "elapsed": sum(load.elapsed for load in untimed),
                "latencies": latencies}
    attempted = sum(load.attempted for load in loads)
    failed = sum(load.failed for load in loads)
    out = Outcome(workload, untraced, [], setup_s, float(run["rss"]),
                  attempted=attempted, failed=failed)
    if workload == "serve_fleet":
        out.units, out.unit_rows = latencies, inputs.rows_per_request
    errors = [load.errors for load in loads if load.errors]
    out.notes.append(f"{workload} requests={attempted} failed={failed} "
                     f"errors={errors} batcher={run['batcher']}")
    if trace:
        out.per_layer.update(serve_layers(traced, json.loads(dump.read_text()), untraced))
    out.problems += check_served(inputs.first, inputs.expected, inputs.divergent,
                                 api.canonical_json)
    return out


def serve_layers(traced: Dict[str, object], dump: Dict[str, object],
                 untraced: Dict[str, object]) -> Dict[str, float]:
    from perfbench.stats import split_repeats, tail

    load = traced["load"]
    acc: Dict[str, Dict[str, object]] = dump["layers"]
    server_s: List[float] = dump["requests"]
    n = max(1, len(server_s))
    total = lambda name: float(acc[name]["total"])  # noqa: E731
    calls = lambda name: max(1, int(acc[name]["calls"]))  # noqa: E731
    waits: List[float] = acc["serve.batch_wait"]["samples"] or [0.0]
    stats: Dict[str, int] = traced["batcher"]
    client_p50 = statistics.median(load.latencies)
    server_p50 = statistics.median(server_s) if server_s else 0.0
    flushes = stats.get("flush_timer", 0) + stats.get("flush_full", 0)
    m = {
        "serve.parse_ms": 1e3 * total("serve.parse") / calls("serve.parse"),
        "api.coerce_ms": 1e3 * total("api.coerce") / calls("api.coerce"),
        "serve.batch_wait_ms": 1e3 * statistics.median(waits),
        "serve.batch_records": stats.get("records", 0) / max(1, stats.get("batches", 0)),
        "serve.flush_timer_share": stats.get("flush_timer", 0) / max(1, flushes),
        "core.diagnose_ms": 1e3 * total("core.diagnose") / calls("core.diagnose"),
        "api.encode_ms": 1e3 * total("api.encode") / n,
        "serve.server_ms": 1e3 * server_p50,
        "serve.transport_ms": 1e3 * (client_p50 - server_p50),
    }
    if load.lags:
        m["loadgen.lag_ms"] = 1e3 * tail(load.lags, 99.0)[1]
    client_mean = statistics.fmean(load.latencies)
    layers = {
        "serve.parse": total("serve.parse") / n,
        "api.coerce": total("api.coerce") / n,
        "serve.batch_wait": sum(waits) / n,
        "core.diagnose": total("core.diagnose") / n,
        "api.encode": total("api.encode") / n,
        "serve.transport": client_mean - (statistics.fmean(server_s) if server_s else 0.0),
    }
    repeats = [statistics.fmean(part) for part in split_repeats(load.latencies, REPEATS)]
    m.update(budget(client_mean, statistics.fmean(untraced["latencies"]), layers,
                    repeats))
    return m


# ------------------------------------------------------------------ results


def budget(end_to_end: float, untraced: float, layers: Dict[str, float],
           repeats: List[float]) -> Dict[str, float]:
    """The ``layers`` block as per-layer metrics; printed whole as a note.

    Times are seconds per work unit: a record (campaign), a row (spool
    replay) or a request (serve).  ``repeats`` holds the same end-to-end
    figure for consecutive parts of the traced run.
    """
    from perfbench.stats import layer_block, spread

    block = layer_block(end_to_end, layers, len(repeats), spread(repeats), untraced)
    print("layers " + json.dumps(block, sort_keys=True))
    m = {f"share.{name}": entry["share"] for name, entry in block["layers"].items()}
    m.update({
        "layers.end_to_end_ms": 1e3 * block["end_to_end_s"],
        "layers.unattributed_ms": 1e3 * block["unattributed_s"],
        "layers.unattributed_share": block["unattributed_share"],
        "layers.repeats": float(block["repeats"]),
        "layers.spread": block["spread"],
        "layers.tracing_overhead": block["tracing_overhead"],
    })
    return m


class Outcome:
    """One run's untraced figures, checks and (when traced) per-layer metrics."""

    def __init__(self, workload: str, untraced: Dict[str, object], problems: List[str],
                 setup_s: float, rss_mb: float, attempted: Optional[int] = None,
                 failed: int = 0) -> None:
        self.workload = workload
        self.untraced = untraced
        self.problems = problems
        self.setup_s = setup_s
        self.rss_mb = rss_mb
        self.rows = int(untraced["rows"])
        self.attempted = self.rows if attempted is None else attempted
        self.failed = failed
        self.per_layer: Dict[str, float] = {}
        self.notes: List[str] = []
        #: seconds of each unit of ``unit_rows`` rows (campaign record,
        #: spool chunk, fleet request); none for the open loop, whose
        #: ``rows_s`` is the rate it delivered
        self.units: List[float] = []
        self.unit_rows = 1

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        from perfbench.stats import fast, tail, unit_rate

        latencies = [1e3 * s for s in self.untraced["latencies"]]
        pct, value, beyond = tail(latencies, TAIL_PCT)
        mean_rate = self.rows / float(self.untraced["elapsed"])
        self.notes.append(f"latency samples={len(latencies)} "
                          f"p50_ms={statistics.median(latencies):.3f} "
                          f"tail_ms={value:.3f} (p{pct:.2f}, beyond={beyond}) "
                          f"mean_rows_s={mean_rate:.3f}")
        rows_s = unit_rate(self.units, self.unit_rows) if self.units else mean_rate
        return {
            "setup_s": (self.setup_s, "s"),
            "rows_s": (rows_s, "rows/s"),
            "p10_ms": (fast(latencies), "ms"),
            "ok_share": (1.0 - self.failed / max(1, self.attempted), "fraction"),
            "peak_rss_mb": (self.rss_mb, "MB"),
        }

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        return {name: (float(self.per_layer.get(name, 0.0)), unit)
                for name, unit in PER_LAYER_UNITS.items()}


RUNNERS = {
    "campaign": run_campaign,
    "spool_diagnose": run_spool_diagnose,
    "serve_fleet": lambda *a: run_serve("serve_fleet", *a),
    "serve_session": lambda *a: run_serve("serve_session", *a),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path[:0] = [str(SRC), str(ROOT)]
    for knob in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[knob]  # worker counts, scale, engines: the defaults only
    from perfbench.inputs import seed_inputs

    scratch = seed_inputs(args.seed).directory
    outcome = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), scratch)
    metrics = outcome.layer_metrics() if args.trace else outcome.end_to_end()
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
