"""Within-run ratio gates on the throughput layers.

Each test times a fast path against its slow twin in the same process
and gates on the ratio, which survives a change of machine where an
absolute floor does not: vectorized vs looped diagnosis, the compiled
engine vs the object oracle, a parallel vs a serial campaign, streaming
vs batch peak heap, and a traced vs an untraced campaign.  Where the fast
path must not change a result (parallel and traced campaigns) the test
also pins the records.  Absolute throughput, per layer, is measured out
of process by ``perfbench/run.py``.
"""

import contextlib
import gc
import multiprocessing
import os
import resource
import signal
import time
import traceback
import tracemalloc

import numpy as np
import pytest

from repro.core.dataset import Dataset, Instance
from repro.core.diagnosis import RootCauseAnalyzer
from repro.testbed.campaign import CampaignConfig, run_campaign
from tests.oracles import object_engine

#: ``diagnose_batch`` over looped ``diagnose`` on 1000 synthetic sessions
BATCH_SPEEDUP_MIN = 5.0
#: ``run_campaign(workers=N)`` over the serial run
PARALLEL_SPEEDUP_MIN = 1.1
#: batch over streaming peak Python heap, on an RSS_INSTANCES campaign
RSS_INSTANCES, RSS_RATIO_MIN = 30, 1.0
#: traced over untraced campaign wall clock, minus one
TRACE_INSTANCES, TRACE_OVERHEAD_MAX = 12, 0.15
#: compiled engine over the object oracle on a COMPILED_ROWS batch
COMPILED_ROWS, COMPILED_SPEEDUP_MIN = 100_000, 5.0


def _probe_feature_names():
    """A realistic multi-VP feature universe (~180 raw features)."""
    names = []
    for vp in ("mobile", "router", "server"):
        for direction in ("c2s", "s2c"):
            names += [f"{vp}_tcp_{direction}_{counter}" for counter in (
                "pkts", "bytes", "data_pkts", "retx_pkts", "ooo_pkts",
                "reordered_pkts", "pure_acks", "dup_acks", "sack_acks",
                "data_bytes", "retx_bytes", "unique_bytes")]
        names += [f"{vp}_tcp_rtt_avg", f"{vp}_tcp_rtt_max",
                  f"{vp}_tcp_flow_duration",
                  f"{vp}_link_tx_rate", f"{vp}_link_rx_rate",
                  f"{vp}_hw_cpu_avg", f"{vp}_hw_mem_avg"]
        names += [f"{vp}_tcp_extra_{i}" for i in range(30)]
    return names


def _synthetic_analyzer_and_sessions(n_sessions=1000):
    names = _probe_feature_names()
    rng = np.random.default_rng(0)

    def features():
        return {n: float(v) for n, v in zip(names, rng.uniform(0, 100, len(names)))}

    def labels(f):
        rtt = f["mobile_tcp_rtt_avg"]
        if rtt < 33:
            return "good", "good", "good"
        if rtt < 66:
            return "mild", "wan_mild", "wan_congestion_mild"
        return "severe", "lan_severe", "wifi_interference_severe"

    train = []
    for _ in range(80):
        f = features()
        severity, location, exact = labels(f)
        train.append(Instance(
            features=f,
            labels={"severity": severity, "location": location,
                    "exact": exact,
                    "existence": "good" if severity == "good" else "problematic"},
            meta={"session_s": 30.0},
        ))
    analyzer = RootCauseAnalyzer(select=False).fit(Dataset(train))
    sessions = [
        Instance(features=features(), labels={},
                 meta={"session_s": 25.0 + (i % 10)})
        for i in range(n_sessions)
    ]
    return analyzer, sessions


def test_batch_diagnosis_speedup():
    """``diagnose_batch`` must beat looped ``diagnose`` by a wide margin,
    so the vectorized path never regresses to per-session cost."""
    analyzer, sessions = _synthetic_analyzer_and_sessions()
    analyzer.diagnose_batch(sessions)  # warm caches

    start = time.perf_counter()
    looped = [analyzer.diagnose(session) for session in sessions]
    loop_s = time.perf_counter() - start

    batch_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batched = analyzer.diagnose_batch(sessions)
        batch_s = min(batch_s, time.perf_counter() - start)

    assert [(r.severity, r.location, r.exact) for r in looped] == \
           [(r.severity, r.location, r.exact) for r in batched]
    speedup = loop_s / batch_s
    print(f"\nbatch diagnosis: loop {loop_s * 1e3:.0f}ms, "
          f"batch {batch_s * 1e3:.0f}ms, speedup {speedup:.1f}x")
    assert speedup >= BATCH_SPEEDUP_MIN, (
        f"diagnose_batch only {speedup:.1f}x faster "
        f"(need {BATCH_SPEEDUP_MIN:.0f}x)"
    )


# --------------------------------------------------------- campaign engines


def test_parallel_campaign_scaling():
    """``run_campaign(workers=N)`` must cut wall clock on a multi-core box
    while producing records identical to the serial run."""
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip("needs at least 2 cores to measure scaling")
    workers = min(4, cpus)
    config = CampaignConfig(n_instances=8, seed=123,
                            video_duration_range=(8.0, 10.0))

    start = time.perf_counter()
    serial = run_campaign(config, workers=1)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_campaign(config, workers=workers)
    parallel_s = time.perf_counter() - start

    assert [r.features for r in serial] == [r.features for r in parallel]
    assert [r.meta for r in serial] == [r.meta for r in parallel]
    speedup = serial_s / parallel_s
    print(f"\nparallel campaign: serial {serial_s:.1f}s, "
          f"{workers} workers {parallel_s:.1f}s, speedup {speedup:.1f}x")
    assert speedup >= PARALLEL_SPEEDUP_MIN, (
        f"parallel campaign only {speedup:.2f}x faster with {workers} workers"
    )


def _measure_in_child(fn):
    """Run ``fn`` in a forked child; return (heap_peak_bytes, rss_kb, result).

    Forking gives both modes an identical memory baseline (same parent
    image, same imports), so the numbers are comparable.  ``tracemalloc``
    provides the deterministic Python-heap peak the assertion uses;
    ``ru_maxrss`` is recorded alongside as the operational number.  A
    child that raises or dies fails the calling test at once.
    """
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)

    def task():
        try:
            gc.collect()
            tracemalloc.start()
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            writer.send((None, (peak, rss_kb, result)))
        except Exception:
            writer.send((traceback.format_exc(), None))

    proc = ctx.Process(target=task)
    proc.start()
    writer.close()  # the child now holds the only write end
    try:
        error, measurement = reader.recv()
    except EOFError:  # the child died before it could answer
        error, measurement = None, None
    proc.join()
    if error is not None:
        pytest.fail(f"measurement child raised:\n{error}")
    if measurement is None:
        pytest.fail(f"measurement child died (exit code {proc.exitcode})")
    return measurement


def _raise():
    raise RuntimeError("boom in the measured function")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(("fn", "fragment"), [
    (_raise, "boom in the measured function"),
    (_kill_self, f"exit code {-signal.SIGKILL}"),
], ids=["raises", "killed"])
def test_measure_in_child_fails_fast_on_crash(fn, fragment):
    """A crashing measurement child fails the test instead of hanging it."""
    start = time.perf_counter()
    with pytest.raises(pytest.fail.Exception, match=fragment):
        _measure_in_child(fn)
    assert time.perf_counter() - start < 1.0


def test_streaming_campaign_memory(report, tmp_path):
    """The streaming pipeline must not peak above the batch path.

    Batch materializes every record and then the dataset on top;
    streaming spools records to disk as they are simulated and keeps one
    in flight.  The gap therefore grows with the campaign length; the
    gate is the batch/streaming Python-heap peak ratio.
    """
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        pytest.skip("needs fork to compare modes from one baseline")
    n = RSS_INSTANCES
    config = CampaignConfig(n_instances=n, seed=321,
                            video_duration_range=(10.0, 14.0))
    spool = tmp_path / "campaign.jsonl"

    def batch_mode():
        records = run_campaign(config)
        dataset = Dataset.from_records(records)
        return len(dataset)

    def streaming_mode():
        from repro.pipeline import CampaignSource, CountSink, JsonlSink, Pipeline

        result = Pipeline(
            CampaignSource(config), JsonlSink(spool), CountSink()
        ).run()
        return result["count"]

    batch_peak, batch_rss, batch_n = _measure_in_child(batch_mode)
    stream_peak, stream_rss, stream_n = _measure_in_child(streaming_mode)

    assert batch_n == stream_n == n
    ratio = batch_peak / stream_peak
    report("streaming_memory", "\n".join([
        f"streaming pipeline memory floor ({n}-instance campaign)",
        f"  batch      peak heap {batch_peak / 1e6:8.2f} MB   "
        f"peak RSS {batch_rss / 1024:7.1f} MB",
        f"  streaming  peak heap {stream_peak / 1e6:8.2f} MB   "
        f"peak RSS {stream_rss / 1024:7.1f} MB",
        f"  batch/streaming heap ratio: {ratio:.2f}x",
    ]))
    assert ratio >= RSS_RATIO_MIN, (
        f"streaming peak heap only {ratio:.2f}x below batch "
        f"(need {RSS_RATIO_MIN:.2f}x)"
    )


def test_telemetry_overhead(report):
    """Tracing a campaign must stay cheap and change no record.

    The observability contract: with the registry disabled every
    instrument call is a constant-cost early return (measured here in
    ns/call), and with it enabled the span/counter bookkeeping stays
    under ``TRACE_OVERHEAD_MAX`` of the campaign's wall clock — while
    the records stay bit-identical either way.
    """
    from repro.obs.telemetry import Telemetry, get_telemetry, tracing

    n = TRACE_INSTANCES
    config = CampaignConfig(n_instances=n, seed=555,
                            video_duration_range=(8.0, 10.0))

    run_campaign(CampaignConfig(n_instances=2, seed=555))  # warm imports

    # alternate modes so clock drift hits both equally; keep the best of each
    untraced_s = traced_s = float("inf")
    untraced_records = traced_records = None
    for _ in range(2):
        start = time.perf_counter()
        records = run_campaign(config)
        untraced_s = min(untraced_s, time.perf_counter() - start)
        untraced_records = records

        with tracing() as tel:
            start = time.perf_counter()
            records = run_campaign(config)
            traced_s = min(traced_s, time.perf_counter() - start)
            traced_records = records
            spans = len(tel.spans)
        get_telemetry().reset()

    assert ([r.features for r in traced_records]
            == [r.features for r in untraced_records])
    assert ([r.meta for r in traced_records]
            == [r.meta for r in untraced_records])

    # disabled-path cost: one span + one count per loop, on a dead registry
    disabled = Telemetry()
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with disabled.span("hot"):
            pass
        disabled.count("hot")
    ns_per_call = (time.perf_counter() - start) / (2 * calls) * 1e9

    overhead = traced_s / untraced_s - 1.0
    report("telemetry_overhead", "\n".join([
        f"telemetry overhead ({n}-instance campaign, {spans} spans)",
        f"  untraced  {untraced_s:7.2f}s",
        f"  traced    {traced_s:7.2f}s   overhead {overhead * 100:+.2f}%",
        f"  disabled instrument call: {ns_per_call:.0f} ns",
        "  records bit-identical: yes",
    ]))
    assert spans >= n  # one campaign.instance span per instance, at least
    assert overhead <= TRACE_OVERHEAD_MAX, (
        f"tracing cost {overhead * 100:.1f}% wall clock "
        f"(budget {TRACE_OVERHEAD_MAX * 100:.0f}%)"
    )


# ------------------------------------------- compiled engine vs object oracle


def _selected_analyzer():
    """An FCBF-on analyzer whose tasks keep a few multi-VP features.

    The label rule mixes five drivers across vantage points so the
    filter retains a realistic feature set (~4 per task) instead of one
    dominant column.
    """
    names = _probe_feature_names()
    rng = np.random.default_rng(7)

    def features():
        return {n: float(v) for n, v in zip(names, rng.uniform(0, 100, len(names)))}

    def labels(f):
        score = (f["mobile_tcp_rtt_avg"]
                 + 0.5 * f["mobile_tcp_c2s_retx_pkts"]
                 + 0.3 * f["router_link_tx_rate"]
                 + 0.2 * f["mobile_hw_cpu_avg"]
                 + 0.4 * f["server_tcp_rtt_max"])
        if score < 95:
            return "good", "good", "good"
        if score < 160:
            return "mild", "wan_mild", "wan_congestion_mild"
        return "severe", "lan_severe", "wifi_interference_severe"

    train = []
    for _ in range(240):
        f = features()
        severity, location, exact = labels(f)
        train.append(Instance(
            features=f,
            labels={"severity": severity, "location": location,
                    "exact": exact,
                    "existence": "good" if severity == "good" else "problematic"},
            meta={"session_s": 30.0},
        ))
    return RootCauseAnalyzer(select=True).fit(Dataset(train)), features


def _engine(mode):
    """The production engine, or the object oracle from tests/oracles.py."""
    return object_engine() if mode == "object" else contextlib.nullcontext()


def _rows_per_sec(analyzer, rows, mode):
    """Best-of-3 ``diagnose_batch`` throughput, stopping once 20 s are spent."""
    with _engine(mode):
        analyzer.diagnose_batch(rows[:1])  # warm plans and caches
        best, spent = float("inf"), 0.0
        for _ in range(3):
            start = time.perf_counter()
            reports = analyzer.diagnose_batch(rows)
            elapsed = time.perf_counter() - start
            assert len(reports) == len(rows)
            best = min(best, elapsed)
            spent += elapsed
            if spent > 20.0:
                break
        return len(rows) / best


def test_compiled_diagnose_speedup(report):
    """Raw session dicts in, reports out: the compiled columnar engine
    must stay well ahead of the node-object walk on a large batch."""
    analyzer, features = _selected_analyzer()
    rows = [features() for _ in range(COMPILED_ROWS)]
    compiled = _rows_per_sec(analyzer, rows, "compiled")
    obj = _rows_per_sec(analyzer, rows, "object")
    speedup = compiled / obj
    per_task = {t: len(f) for t, f in analyzer.features.items()}
    report("diagnose_throughput", "\n".join([
        f"diagnose_batch at {COMPILED_ROWS:,} rows "
        f"(select=on, features/task {per_task})",
        f"  compiled {compiled:12,.0f} rows/s",
        f"  object   {obj:12,.0f} rows/s   speedup {speedup:.2f}x",
    ]))
    assert speedup >= COMPILED_SPEEDUP_MIN, (
        f"compiled engine only {speedup:.2f}x the object path at "
        f"{COMPILED_ROWS:,} rows (need {COMPILED_SPEEDUP_MIN:.0f}x)"
    )


def test_predict_one_latency(report):
    """Single-session scalar fast path vs the object engine round trip."""
    analyzer, _features = _selected_analyzer()
    iters = 2000
    lat = {}
    for mode in ("compiled", "object"):
        with _engine(mode):
            tree = next(iter(analyzer.models.values()))
            row = [float(i) for i in range(tree.n_features)]
            tree.predict_one(row)  # warm
            start = time.perf_counter()
            for _ in range(iters):
                tree.predict_one(row)
            lat[mode] = (time.perf_counter() - start) / iters
    report("predict_one_latency",
           "predict_one scalar fast path\n"
           f"  compiled  {lat['compiled'] * 1e6:8.2f} us/call\n"
           f"  object    {lat['object'] * 1e6:8.2f} us/call")
    assert lat["compiled"] <= lat["object"], (
        "scalar compiled predict_one slower than the object round trip"
    )
