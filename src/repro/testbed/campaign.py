"""Controlled ground-truth campaigns (Section 4) and the parallel engine.

A campaign iterates scenarios: a randomly picked video is streamed while a
fault of varied intensity is injected (or none, for healthy baselines),
always on top of randomized background variations.  Every instance runs in
a fresh, independently-seeded testbed so campaigns are reproducible and
embarrassingly parallel.

The parallel engine exploits exactly that: all per-instance seeds are drawn
up front from the campaign RNG (the same draws the serial loop makes), then
instances are fanned out over a fork-context process pool in chunks.
Because every instance depends only on ``(config, index, instance_seed)``,
a ``workers=N`` run is bit-identical to the serial one.  The engine falls
back to the serial path when ``workers <= 1``, when the platform lacks
``fork``, or when already inside a worker process.

The same purity makes a dead worker cheap to survive: when a worker
process is killed (SIGKILL, the OOM killer) the pool breaks, and a fresh
pool reruns every instance not yet yielded -- at most
:data:`MAX_POOL_RESTARTS` times per run, after which
:class:`WorkerCrashError` is raised.  An exception raised *by* an
instance is deterministic and propagates as is, with no restart.

Telemetry: with tracing enabled (:mod:`repro.obs`), every run emits a
``campaign.run`` span containing one ``campaign.instance`` span per
scenario.  Parallel workers collect each instance into a scratch
registry and ship the export back alongside the record; the parent
absorbs it, so worker spans carry per-worker attribution while counters
aggregate exactly as in a serial run.  Records themselves are never
touched — traced and untraced campaigns are bit-identical.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import random
import signal
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.faults.base import FAULT_NAMES, make_fault
from repro.obs.telemetry import Telemetry, get_telemetry, set_telemetry
from repro.testbed.testbed import SessionRecord, Testbed, TestbedConfig
from repro.video.catalog import VideoCatalog

#: one scenario simulator: ``(config, index, instance_seed) -> SessionRecord``.
#: Must be a module-level callable so a fork pool can dispatch it.
InstanceFn = Callable[[object, int, int], SessionRecord]

#: progress callback signature shared by all campaign runners.
ProgressFn = Callable[[int, SessionRecord], None]


@dataclass
class CampaignConfig:
    """Parameters of one data-collection campaign."""

    n_instances: int = 400
    seed: int = 42
    healthy_fraction: float = 0.45
    mild_fraction: float = 0.5
    faults: Sequence[str] = FAULT_NAMES
    wan_profile: str = "dsl"
    #: "apache", "youtube", or "mixed" (per-instance draw).  The paper's
    #: system must be agnostic to "static or adaptive streaming, pacing and
    #: so on" (Section 2); training across delivery mechanisms is what
    #: keeps feature selection away from delivery-pattern features.
    server_mode: str = "mixed"
    catalog_size: int = 100
    #: campaign videos are kept short so a full dataset simulates quickly;
    #: the distributional diversity (SD/HD, bitrates) is what matters.
    video_duration_range: Tuple[float, float] = (18.0, 45.0)
    hd_fraction: float = 0.5
    testbed_overrides: Dict[str, object] = field(default_factory=dict)


# --------------------------------------------------------------- the engine


def campaign_seeds(seed: int, n_instances: int) -> List[int]:
    """The per-instance seed sequence a campaign RNG would draw serially."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n_instances)]


def shard_partition(seeds: Sequence[int], shards: int) -> List[List[int]]:
    """Partition instance indices into ``shards`` buckets by seed value.

    Shard ``k`` owns every index ``i`` with ``seeds[i] % shards == k``:
    a pure function of the campaign's own seed draws, so any process on
    any host that knows ``(config.seed, n_instances, shards)`` computes
    the identical partition.  Every index lands in exactly one shard and
    each shard's index list is ascending — the two invariants the merge
    step's order reconstruction relies on (and the property tests pin).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    buckets: List[List[int]] = [[] for _ in range(shards)]
    for index, instance_seed in enumerate(seeds):
        buckets[instance_seed % shards].append(index)
    return buckets


def env_workers() -> int:
    """The ``REPRO_WORKERS`` default, tolerating unset/garbage values.

    A typo in an environment knob must not crash campaign code (or module
    import); it degrades to serial with a warning.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        warnings.warn(
            f"ignoring non-integer REPRO_WORKERS={raw!r}; running serial",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1


def resolve_workers(workers: Optional[int]) -> int:
    """Worker count from an explicit value or the ``REPRO_WORKERS`` env."""
    if workers is None:
        return env_workers()
    return max(1, int(workers))


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """A fork multiprocessing context, or ``None`` where unavailable."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


#: fresh pools one run may start after a worker process dies
MAX_POOL_RESTARTS = 2

#: set in every pool worker by :func:`_enter_worker`: no nested pools
_IN_WORKER = False


def _enter_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    # Ctrl-C reaches the whole process group: the parent stops the run
    # and kills its workers, so a worker has nothing to report.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class WorkerCrashError(RuntimeError):
    """Pool workers kept dying after :data:`MAX_POOL_RESTARTS` fresh pools."""


#: one pool job: ``(fn, config, index, seed, traced)``
_Job = Tuple[InstanceFn, object, int, int, bool]

#: one pool result: the record plus the worker's trace payload (if traced)
_JobResult = Tuple[SessionRecord, Optional[Dict[str, object]]]


def _run_job(job: _Job) -> _JobResult:
    instance_fn, config, index, instance_seed, traced = job
    if not traced:
        return instance_fn(config, index, instance_seed), None
    # Collect into a scratch registry so only this instance's data ships
    # back: the worker's inherited (forked) registry stays untouched.
    local = Telemetry(enabled=True)
    previous = set_telemetry(local)
    try:
        with local.span("campaign.instance", index=index):
            record = instance_fn(config, index, instance_seed)
    finally:
        set_telemetry(previous)
    return record, local.export()


def iter_instances(
    instance_fn: InstanceFn,
    config: object,
    seeds: Sequence[int],
    progress: Optional[ProgressFn] = None,
    workers: Optional[int] = None,
    start: int = 0,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> Iterator[SessionRecord]:
    """Yield one record per ``(index, seed)`` pair, in pair order.

    With ``workers > 1`` (and a fork-capable platform) instances are
    dispatched to a process pool in chunks; results stream back in order
    and ``progress`` fires in the parent, so callers cannot tell the two
    modes apart except by wall clock -- not even when a worker dies,
    since every instance not yet yielded is rerun on a fresh pool.

    ``start`` skips the first ``start`` instances while keeping absolute
    indices and per-instance seeds unchanged — the records produced for
    indices ``start..`` are bit-identical to the tail of a full run,
    which is what makes checkpoint/resume exact.  ``pairs`` replaces the
    ``seeds``/``start`` prefix convention with an explicit ``(index,
    seed)`` subsequence — the shard primitive: any subset of the
    campaign's instance space runs with absolute indices and seeds
    unchanged, so sharded records stay bit-identical to serial ones.
    """
    if pairs is None:
        pairs = [(start + off, seed) for off, seed in enumerate(seeds[start:])]
    else:
        pairs = list(pairs)
    n = len(pairs)
    workers = min(resolve_workers(workers), max(1, n))
    context = _fork_context() if workers > 1 and not _IN_WORKER else None
    tel = get_telemetry()
    with tel.span("campaign.run", n=n, workers=workers, start=start) as run:
        if context is None:
            for index, instance_seed in pairs:
                with tel.span("campaign.instance", index=index):
                    record = instance_fn(config, index, instance_seed)
                run.count("instances")
                if progress is not None:
                    progress(index, record)
                yield record
            return
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # Small chunks keep the pool load-balanced (instances are seconds
        # each) while still amortising dispatch for large campaigns.
        chunksize = max(1, min(4, n // (workers * 4)))
        done = 0
        restarts = 0
        while done < n:
            pool = ProcessPoolExecutor(
                workers, mp_context=context, initializer=_enter_worker
            )
            try:
                jobs: List[_Job] = [
                    (instance_fn, config, index, seed, tel.enabled)
                    for index, seed in pairs[done:]
                ]
                for record, payload in pool.map(
                    _run_job, jobs, chunksize=chunksize
                ):
                    if payload is not None:
                        tel.absorb(payload)
                    run.count("instances")
                    if progress is not None:
                        progress(pairs[done][0], record)
                    done += 1
                    yield record
            except BrokenProcessPool as exc:
                if restarts == MAX_POOL_RESTARTS:
                    raise WorkerCrashError(
                        f"campaign workers died {restarts + 1} times; "
                        f"{done} of {n} instances finished"
                    ) from exc
                restarts += 1
                run.count("pool_restarts")
            except BaseException:
                # An instance raised or the consumer closed early: kill
                # the workers now instead of waiting out queued chunks.
                for process in pool._processes.values():
                    process.kill()
                raise
            finally:
                pool.shutdown(wait=True, cancel_futures=True)


@functools.lru_cache(maxsize=8)
def _catalog(
    size: int, duration_range: Tuple[float, float], hd_fraction: float, seed: int
) -> VideoCatalog:
    """Per-process catalog cache: identical in every worker (pure of seed)."""
    return VideoCatalog(
        size=size,
        duration_range=duration_range,
        hd_fraction=hd_fraction,
        seed=seed,
    )


# ------------------------------------------------- the controlled campaign


def _controlled_instance(
    config: CampaignConfig, index: int, instance_seed: int
) -> SessionRecord:
    """Simulate one scenario instance; pure function of its arguments."""
    catalog = _catalog(
        config.catalog_size,
        tuple(config.video_duration_range),
        config.hd_fraction,
        config.seed ^ 0x5EED,
    )
    scenario_rng = random.Random(instance_seed)
    server_mode = config.server_mode
    if server_mode == "mixed":
        server_mode = scenario_rng.choice(("apache", "youtube"))
    testbed = Testbed(
        TestbedConfig(
            seed=instance_seed,
            wan_profile=config.wan_profile,
            server_mode=server_mode,
            **config.testbed_overrides,
        )
    )
    profile = catalog.pick(scenario_rng)
    fault = None
    if scenario_rng.random() >= config.healthy_fraction:
        name = scenario_rng.choice(list(config.faults))
        severity = (
            "mild"
            if scenario_rng.random() < config.mild_fraction
            else "severe"
        )
        fault = make_fault(name, severity, scenario_rng)
    record = testbed.run_video_session(profile, fault=fault)
    record.meta["instance_index"] = index
    record.meta["instance_seed"] = instance_seed
    testbed.shutdown()
    return record


def iter_campaign(
    config: CampaignConfig,
    progress: Optional[ProgressFn] = None,
    workers: Optional[int] = None,
    start: int = 0,
) -> Iterator[SessionRecord]:
    """Yield one :class:`SessionRecord` per scenario instance.

    This is the canonical streaming entry point: records are produced
    one at a time (or streamed back in order from the worker pool), so
    callers that consume incrementally hold at most a chunk in memory.
    ``start`` resumes mid-campaign without perturbing any later record.
    """
    seeds = campaign_seeds(config.seed, config.n_instances)
    yield from iter_instances(
        _controlled_instance,
        config,
        seeds,
        progress=progress,
        workers=workers,
        start=start,
    )


def iter_campaign_pairs(
    config: CampaignConfig,
    pairs: Sequence[Tuple[int, int]],
    progress: Optional[ProgressFn] = None,
    workers: Optional[int] = None,
) -> Iterator[SessionRecord]:
    """Yield records for an explicit ``(index, seed)`` subsequence.

    The shard entry point: a shard owns an arbitrary ascending subset of
    the campaign's instance space (see :func:`shard_partition`), and
    because every instance is a pure function of ``(config, index,
    instance_seed)``, running the subset produces records bit-identical
    to the same positions of a serial full run.  ``workers`` fans out
    exactly as in :func:`iter_campaign`.
    """
    yield from iter_instances(
        _controlled_instance, config, (),
        progress=progress, workers=workers, pairs=pairs,
    )


def run_campaign(
    config: CampaignConfig,
    progress: Optional[ProgressFn] = None,
    workers: Optional[int] = None,
) -> List[SessionRecord]:
    """Collect the full campaign into a list of records.

    A thin batch wrapper over :func:`iter_campaign` — the streaming path
    is the canonical one; use it (or :mod:`repro.pipeline`) when the
    campaign should not be held in memory at once.  ``workers`` fans
    instances out over a process pool (default: the ``REPRO_WORKERS``
    environment variable, else serial); results are identical to a
    serial run for the same config.
    """
    return list(iter_campaign(config, progress=progress, workers=workers))
