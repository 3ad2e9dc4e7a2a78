"""The shard orchestrator: run N shards as subprocesses, survive crashes.

A mega-campaign's shards are embarrassingly parallel and individually
resumable (:mod:`repro.pipeline.shard`), so supervision reduces to a
small state machine per shard::

    pending -> running -> done
                  |  \\
                  |   failed          (retry budget exhausted)
                  v
               backoff -> pending     (crash or stalled heartbeat)

Shards run as real subprocesses (``multiprocessing`` with the ``fork``
start method where available), so a SIGKILL, an OOM kill, or a hard
crash in one shard cannot corrupt the supervisor or any sibling — the
shard's spool simply stops growing at its last durable checkpoint, and
the retry relaunches ``run_shard(resume=True)`` which continues from
exactly that record.  Liveness is judged two ways: the subprocess exit
code (a dead shard), and a *heartbeat* read from the shard's checkpoint
sidecar (a hung shard: alive but not committing records).  Retries use
bounded exponential backoff; a shard that exhausts its budget is marked
failed with its partial spool preserved, while the remaining shards run
to completion — partial data is never discarded.

The supervisor is deliberately single-threaded: one poll loop owns all
state, so there are no races between exit detection, heartbeat checks,
and relaunches.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.context
import multiprocessing.process
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.telemetry import get_telemetry
from repro.pipeline.shard import (
    run_shard,
    shard_complete,
    shard_progress,
)
from repro.testbed.campaign import CampaignConfig


@dataclass
class OrchestratorSettings:
    """Supervision knobs (simulation knobs live on the campaign config)."""

    #: relaunches allowed per shard after its first attempt
    max_retries: int = 2
    #: seconds without checkpoint progress before a live shard is
    #: declared hung and killed
    heartbeat_timeout: float = 60.0
    #: exponential backoff: ``base * 2**(retry-1)`` seconds, capped
    backoff_base: float = 0.25
    backoff_max: float = 5.0
    #: supervisor poll interval
    poll_interval: float = 0.05
    #: concurrently running shards (None: all at once)
    max_procs: Optional[int] = None


@dataclass
class ShardStatus:
    """One shard's supervision record."""

    shard: int
    attempts: int = 0
    completed: int = 0
    state: str = "pending"  # pending | running | backoff | done | failed
    reasons: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "attempts": self.attempts,
            "completed": self.completed,
            "state": self.state,
            "reasons": list(self.reasons),
        }


@dataclass
class OrchestrateResult:
    """Outcome of one supervised sharded campaign."""

    statuses: List[ShardStatus]
    retries: int

    @property
    def ok(self) -> bool:
        return all(status.state == "done" for status in self.statuses)

    @property
    def failed_shards(self) -> List[int]:
        return [s.shard for s in self.statuses if s.state == "failed"]

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "retries": self.retries,
            "failed": self.failed_shards,
            "shards": [status.to_dict() for status in self.statuses],
        }


#: ``(event, shard, detail)`` observer for human progress output
LogFn = Callable[[str, int, str], None]


def _shard_entry(
    config: CampaignConfig,
    base: str,
    shards: int,
    shard: int,
    workers: Optional[int],
) -> None:
    """Subprocess body: run one shard, resuming from its checkpoint."""
    run_shard(
        config,
        base,
        shards,
        shard,
        workers=workers,
        resume=True,
    )


def _context() -> multiprocessing.context.BaseContext:
    """Fork where possible (cheap relaunches), spawn elsewhere."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")  # pragma: no cover


@dataclass
class _Running:
    process: multiprocessing.process.BaseProcess
    started: float
    last_progress: float
    last_completed: int


def orchestrate(
    config: CampaignConfig,
    base: Union[str, "os.PathLike[str]"],
    shards: int,
    workers: Optional[int] = None,
    settings: Optional[OrchestratorSettings] = None,
    log: Optional[LogFn] = None,
) -> OrchestrateResult:
    """Run every shard of a campaign under crash-retry supervision.

    Returns once all shards are done or have exhausted their retry
    budget; check ``result.ok`` (the CLI maps failures to exit 1).
    Merging is a separate, explicit step — a failed orchestration keeps
    every completed shard's spool on disk for later resumption.
    """
    settings = settings or OrchestratorSettings()
    base = str(base)
    statuses = [ShardStatus(shard=shard) for shard in range(shards)]
    ctx = _context()
    pending: List[int] = list(range(shards))
    backoff: List[Tuple[float, int]] = []  # (restart_at, shard)
    running: Dict[int, _Running] = {}
    retries = 0
    limit = settings.max_procs or shards

    def emit(event: str, shard: int, detail: str = "") -> None:
        if log is not None:
            log(event, shard, detail)

    tel = get_telemetry()
    with tel.span(
        "campaign.orchestrate", shards=shards, n=config.n_instances
    ) as span:
        while pending or backoff or running:
            now = time.monotonic()
            # Backoff timers that have expired rejoin the launch queue.
            due = [shard for at, shard in backoff if at <= now]
            if due:
                backoff[:] = [(at, s) for at, s in backoff if s not in due]
                pending.extend(due)
            # Launch while there is queue and process budget.
            while pending and len(running) < limit:
                shard = pending.pop(0)
                status = statuses[shard]
                status.attempts += 1
                status.state = "running"
                process = ctx.Process(
                    target=_shard_entry,
                    args=(config, base, shards, shard, workers),
                )
                process.start()
                span.count("launches")
                emit("launch", shard, f"attempt {status.attempts}")
                running[shard] = _Running(
                    process=process,
                    started=now,
                    last_progress=now,
                    last_completed=shard_progress(base, shards, shard),
                )

            progressed = False
            for shard in list(running):
                state = running[shard]
                status = statuses[shard]
                exitcode = state.process.exitcode
                if exitcode is None:
                    completed = shard_progress(base, shards, shard)
                    if completed > state.last_completed:
                        state.last_completed = completed
                        state.last_progress = now
                        status.completed = completed
                    elif now - state.last_progress > settings.heartbeat_timeout:
                        # Alive but not committing records: a hung shard.
                        pid = state.process.pid
                        if pid is not None:
                            os.kill(pid, signal.SIGKILL)
                        state.process.join()
                        del running[shard]
                        progressed = True
                        _record_failure(status, "heartbeat timeout", emit)
                        retries += _schedule_retry(
                            status, settings, backoff, now,
                        )
                    continue
                # The subprocess has exited.
                state.process.join()
                del running[shard]
                progressed = True
                status.completed = shard_progress(base, shards, shard)
                if exitcode == 0 and shard_complete(base, shards, shard):
                    status.state = "done"
                    span.count("completed")
                    emit("done", shard,
                         f"{status.completed} records")
                    continue
                reason = (f"exit code {exitcode}" if exitcode != 0
                          else "exited without completing its spool")
                _record_failure(status, reason, emit)
                retries += _schedule_retry(status, settings, backoff, now)

            if not progressed:
                time.sleep(settings.poll_interval)
        span.set("retries", retries)
        span.set("ok", all(s.state == "done" for s in statuses))
    return OrchestrateResult(statuses=statuses, retries=retries)


def _record_failure(
    status: ShardStatus,
    reason: str,
    emit: Callable[[str, int, str], None],
) -> None:
    status.reasons.append(reason)
    tel = get_telemetry()
    tel.event("shard.dead", shard=status.shard, reason=reason,
              attempts=status.attempts)
    emit("dead", status.shard, reason)


def _schedule_retry(
    status: ShardStatus,
    settings: OrchestratorSettings,
    backoff: List[Tuple[float, int]],
    now: float,
) -> int:
    """Queue a relaunch (returns 1) or mark the shard failed (0)."""
    tel = get_telemetry()
    retry = status.attempts  # retries already spent == launches so far
    if retry > settings.max_retries:
        status.state = "failed"
        tel.event("shard.failed", shard=status.shard,
                  attempts=status.attempts)
        return 0
    delay = min(settings.backoff_max,
                settings.backoff_base * (2 ** (retry - 1)))
    status.state = "backoff"
    tel.count("orchestrator.retries")
    tel.event("shard.retry", shard=status.shard, attempt=status.attempts,
              delay=delay)
    backoff.append((now + delay, status.shard))
    return 1
