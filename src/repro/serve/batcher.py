"""Request micro-batching onto the vectorized diagnosis path.

The serving economics of this model family come from one fact: scoring N
sessions through ``diagnose_batch`` costs barely more than scoring one,
because feature construction and tree prediction are numpy-vectorized.
The :class:`MicroBatcher` converts that into tail latency — requests
submitted in the same event-loop turn are coalesced into one batch of at
most ``max_batch`` records, run through a single callable, and the
results are sliced back to each request in arrival order.

The window is one loop turn: the first request of a window schedules
one ``loop.call_soon`` flush, which runs at the start of the next turn.
Every connection that became readable in the same turn — in particular,
all those that arrived while the previous batch blocked the loop —
shares that flush, and a lone request is scored on the next turn.

Properties the concurrency suite pins:

* **ordering** — each request's reports come back in its own record
  order, regardless of how requests interleave on the loop;
* **end-of-turn flush** — requests submitted in one turn share one
  runner call; a request submitted in a later turn gets its own;
* **size cap** — the runner never sees more than ``max_batch`` records
  in one call; a full window flushes inside ``submit`` and cancels the
  pending end-of-turn flush;
* **error isolation** — when a batch raises, each member request is
  retried alone, so one malformed record fails only the request that
  carried it;
* **bit-identity** — batching is pure routing: reports are exactly what
  ``runner(records)`` returns for the same records in any grouping
  (``diagnose_batch`` is row-local, which the equivalence tests pin).

Diagnosis is CPU-bound and the GIL is real, so batches run inline on the
event loop: a flush blocks the loop for the few hundred microseconds the
vectorized call takes, which *is* the service's pacing mechanism — while
one batch computes, the next window's requests queue behind it.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, TypeVar

T = TypeVar("T")

#: scores one batch of records; must return one result per record, in order
BatchRunner = Callable[[Sequence[object]], Sequence[T]]


class _PendingRequest:
    """One submitted request waiting for its slice of a batch."""

    __slots__ = ("records", "future")

    def __init__(
        self, records: List[object], future: "asyncio.Future[List[object]]"
    ) -> None:
        self.records = records
        self.future = future


class MicroBatcher:
    """Coalesce concurrent requests onto one vectorized runner call.

    Single event loop, no locks: all mutation happens on the loop via
    :meth:`submit` and the end-of-turn flush callback.  ``runner`` is any
    callable scoring a record sequence (in production,
    ``analyzer.diagnose_batch`` via the model registry).
    """

    def __init__(self, runner: BatchRunner[object], max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.runner = runner
        self.max_batch = max_batch
        self._pending: List[_PendingRequest] = []
        self._pending_records = 0
        self._scheduled: Optional[asyncio.Handle] = None
        #: lifetime stats, surfaced by the server's model endpoints;
        #: ``flush_timer`` counts end-of-turn flushes (``/v1/models``
        #: readers know the key by that name)
        self.stats: Dict[str, int] = {
            "requests": 0,
            "records": 0,
            "batches": 0,
            "flush_full": 0,
            "flush_timer": 0,
            "flush_drain": 0,
            "request_errors": 0,
        }

    # ---------------------------------------------------------------- submit

    def submit(self, records: Sequence[object]) -> Awaitable[List[object]]:
        """Queue one request; resolves to one result per record, in order.

        Must be called from a running event loop.  The request joins the
        current window: it flushes immediately once ``max_batch`` records
        are queued, else at the start of the next loop turn.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[List[object]]" = loop.create_future()
        self.stats["requests"] += 1
        self.stats["records"] += len(records)
        self._pending.append(_PendingRequest(list(records), future))
        self._pending_records += len(records)
        if self._pending_records >= self.max_batch:
            self.flush("full")
        elif self._scheduled is None:
            self._scheduled = loop.call_soon(self.flush, "timer")
        return future

    # ----------------------------------------------------------------- flush

    @property
    def pending_records(self) -> int:
        """Records queued in the current window (0 after any flush)."""
        return self._pending_records

    def flush(self, reason: str = "drain") -> None:
        """Drain the whole queue now, running the batches inline.

        Called at the end of the window's loop turn (``reason="timer"``),
        by :meth:`submit` when the window fills (``"full"``), and by the
        server's drain path (``"drain"``).  All queued futures are
        resolved before return.
        """
        if self._scheduled is not None:
            self._scheduled.cancel()
            self._scheduled = None
        pending, self._pending = self._pending, []
        self._pending_records = 0
        if not pending:
            return
        self.stats[f"flush_{reason}"] = self.stats.get(f"flush_{reason}", 0) + 1
        self._execute(pending)

    def _execute(self, pending: List[_PendingRequest]) -> None:
        """Score the drained window in runner calls of <= max_batch records."""
        group: List[_PendingRequest] = []
        group_records = 0
        for request in pending:
            if group and group_records + len(request.records) > self.max_batch:
                self._run_group(group)
                group, group_records = [], 0
            group.append(request)
            group_records += len(request.records)
            # An oversized single request still caps the runner call: it
            # is scored alone, chunked below max_batch inside _run_group.
            if group_records >= self.max_batch:
                self._run_group(group)
                group, group_records = [], 0
        if group:
            self._run_group(group)

    def _run_group(self, group: List[_PendingRequest]) -> None:
        records: List[object] = []
        for request in group:
            records.extend(request.records)
        try:
            results = self._run_chunked(records)
        except Exception:
            self._run_isolated(group)
            return
        offset = 0
        for request in group:
            end = offset + len(request.records)
            if not request.future.done():
                request.future.set_result(list(results[offset:end]))
            offset = end

    def _run_chunked(self, records: List[object]) -> List[object]:
        """Run ``records`` through the runner, never more than max_batch at once."""
        self.stats["batches"] += 1
        if len(records) <= self.max_batch:
            return list(self.runner(records))
        results: List[object] = []
        for start in range(0, len(records), self.max_batch):
            if start:
                self.stats["batches"] += 1
            results.extend(self.runner(records[start:start + self.max_batch]))
        return results

    def _run_isolated(self, group: List[_PendingRequest]) -> None:
        """Fallback after a failed batch: score each request alone.

        Only the request(s) whose records actually fail see an error;
        innocent co-batched requests still get their results.
        """
        for request in group:
            try:
                results = self._run_chunked(request.records)
            except Exception as exc:
                self.stats["request_errors"] += 1
                if not request.future.done():
                    request.future.set_exception(exc)
            else:
                if not request.future.done():
                    request.future.set_result(list(results))
