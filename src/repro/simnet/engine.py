"""Discrete-event simulation engine.

A single :class:`Simulator` owns the virtual clock, the pending-event queue
and all randomness.  Every stochastic component in the testbed (loss draws,
netem jitter, background traffic inter-arrivals, RSSI shadowing, ...) pulls
from the simulator's seeded generators so that a campaign is fully
reproducible from its seed, as required by the evaluation pipeline.

The pending queue is a :class:`CalendarScheduler`: a ring of time
buckets, each an independent binary heap keyed on ``(time, seq)``, plus an
overflow heap for events beyond the ring's horizon.  Most pushes and pops
touch a heap of only the events sharing one bucket, and the heap entries
are plain tuples so ordering comparisons run in C.  Events fire in
``(time, seq)`` order: among equal timestamps, schedule (FIFO) order wins.
The test suite keeps the original single binary heap as an oracle
(``tests/oracles.py``) and pins campaign records bit-identical across the
two.

Scheduling has two tiers.  :meth:`Simulator.schedule` returns a
cancellable :class:`Event` handle; :meth:`Simulator.post` is the
fire-and-forget fast path used by the data plane (packet serialization,
delivery, forwarding), which queues a bare ``(time, seq, bucket, fn,
args)`` tuple with no handle object at all.  The dispatch loop lives in
the scheduler so the hot path runs over locals; both tiers share one
sequence counter, so FIFO ordering across tiers is exact.

Cancelled events are purged lazily, but the scheduler counts its dead
entries and compacts the queue when more than half the entries are
cancelled, so a workload that schedules and cancels many timers (TCP RTO
rearming, probe sampling) keeps the queue bounded by the live event count.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from sys import getrefcount
from typing import Any, Callable, List, Optional, Tuple

from repro.simnet.rng import BatchedRandom

#: events recycled through the per-simulator free list (steady state keeps
#: allocation near zero; the cap only bounds a burst of simultaneous events)
_EVENT_POOL_MAX = 256

#: calendar geometry: 512 buckets of 0.5 ms cover a 256 ms horizon, sized
#: for the testbed's event mix (sub-ms wifi slots and serialization times,
#: tens-of-ms propagation and delayed-ACK timers); RTOs and 1 s probe
#: timers live in the overflow heap and migrate in one revolution early.
_BUCKET_WIDTH_S = 5e-4
_N_BUCKETS = 512

#: bucket-number stand-in for "no limit" (compares above any real bucket)
_MAX_K = sys.maxsize

# A queue entry is (time, seq, bucket, fn_or_event, args_or_None): a plain
# Event for the cancellable tier (args is None), or the callback and its
# argument tuple directly for the post() tier.  ``seq`` is unique, so heap
# comparisons never look past it and ordering is exactly (time, seq).
_SchedEntry = Tuple[float, int, int, Any, Optional[tuple]]


class Event:
    """A scheduled callback; cancellable handle returned by ``schedule``."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queue = None  # owning scheduler while queued (for accounting)

    def cancel(self) -> None:
        """Prevent the callback from firing; safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = ()
        queue = self._queue
        if queue is not None:
            queue.note_cancel()

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, {state})"


def _entry_live(entry: _SchedEntry) -> bool:
    return entry[4] is not None or not entry[3].cancelled


class CalendarScheduler:
    """Calendar queue: bucketed near-future ring + far-future overflow heap.

    The third entry field holds the event's absolute bucket number
    ``k = int(time / width)`` (monotone in ``time``, so bucket order can
    never contradict time order).  The ring covers buckets
    ``[cursor, cursor + _N_BUCKETS)``; later events wait in ``_far`` and
    migrate into the ring one revolution ahead of the cursor.  When the
    ring empties the cursor jumps directly to the far head's bucket, so
    sparse workloads never scan empty buckets.
    """

    def __init__(self) -> None:
        self._width = _BUCKET_WIDTH_S
        self._nb = _N_BUCKETS
        self._buckets: List[List[_SchedEntry]] = [[] for _ in range(self._nb)]
        self._far: List[_SchedEntry] = []
        self._cursor = 0  # absolute bucket number currently being drained
        self._ring_n = 0  # entries (live + cancelled) in the ring
        self._far_n = 0
        self._cancelled = 0

    def insert(self, time: float, seq: int, fn: Any, args: Optional[tuple]) -> None:
        k = int(time / self._width)
        cursor = self._cursor
        if k < cursor:
            # Only reachable through float rounding at a bucket boundary;
            # the current bucket's heap still orders it correctly by time.
            k = cursor
        if k - cursor < self._nb:
            heapq.heappush(self._buckets[k % self._nb], (time, seq, k, fn, args))
            self._ring_n += 1
        else:
            heapq.heappush(self._far, (time, seq, k, fn, args))
            self._far_n += 1

    def make_post(self, sim: "Simulator", seq: Any) -> Callable[..., None]:
        """Build the fire-and-forget fast path bound to this queue.

        The returned closure is installed as ``sim.post``: it fuses the
        sequence draw and the bucket insert into one call frame.  The
        bucket ring and far heap are captured directly, which is safe
        because :meth:`compact` rebuilds both in place.
        """
        buckets = self._buckets
        nb = self._nb
        width = self._width
        far = self._far
        heappush = heapq.heappush
        seq_next = seq.__next__

        def post(delay: float, fn: Callable, *args: Any) -> None:
            if delay < 0:
                raise ValueError(f"cannot schedule in the past (delay={delay})")
            time = sim.now + delay
            k = int(time / width)
            cursor = self._cursor
            if k < cursor:
                k = cursor
            if k - cursor < nb:
                heappush(buckets[k % nb], (time, seq_next(), k, fn, args))
                self._ring_n += 1
            else:
                heappush(far, (time, seq_next(), k, fn, args))
                self._far_n += 1

        return post

    def quiet_at(self, now: float) -> bool:
        """True when no queued entry, live or cancelled, has time <= ``now``.

        Called from inside a callback running at ``now``: every entry due
        by then shares the cursor bucket (an entry's bucket number is
        never below the cursor, nor above it when its time is ``now``),
        and a bucket heap's head is its earliest entry.
        """
        bucket = self._buckets[self._cursor % self._nb]
        return not bucket or bucket[0][0] > now

    def _run(self, sim: "Simulator", limit: float) -> int:
        """Dispatch events with ``time <= limit``; returns the count run."""
        buckets = self._buckets
        nb = self._nb
        heappop = heapq.heappop
        refcount = getrefcount
        pool_max = _EVENT_POOL_MAX
        free = sim._free_events
        limit_k = _MAX_K if limit == math.inf else int(limit / self._width)
        n = 0
        cursor = self._cursor
        while sim._running:
            if self._ring_n:
                bucket = buckets[cursor % nb]
                if bucket:
                    head = bucket[0]
                    # Entries whose bucket number belongs to a later
                    # revolution share the heap but sort after this one's.
                    if head[2] == cursor:
                        if head[0] > limit:
                            break
                        heappop(bucket)
                        self._ring_n -= 1
                        fn = head[3]
                        args = head[4]
                        if args is None:
                            event = fn
                            event._queue = None
                            if event.cancelled:
                                self._cancelled -= 1
                                head = None
                                if len(free) < pool_max and refcount(event) == 2:
                                    free.append(event)
                                continue
                            sim.now = head[0]
                            fn = event.fn
                            args = event.args
                            event.fn = None
                            event.args = ()
                            head = None
                            fn(*args)
                            n += 1
                            args = None
                            if len(free) < pool_max and refcount(event) == 2:
                                free.append(event)
                        else:
                            sim.now = head[0]
                            head = None
                            fn(*args)
                            n += 1
                            args = None
                        continue
                # Bucket exhausted for this revolution.  Any event with
                # time <= limit has bucket number <= limit_k, so the
                # cursor never needs to pass limit_k.
                if limit_k <= cursor:
                    break
                cursor += 1
                self._cursor = cursor
                if not cursor % nb:
                    self._drain_far()
                continue
            # Ring empty: discard dead far heads, then jump the cursor
            # straight to the far head's bucket (sparse fast-forward).
            far = self._far
            while far:
                h = far[0]
                if h[4] is None and h[3].cancelled:
                    heappop(far)
                    self._far_n -= 1
                    self._cancelled -= 1
                    continue
                break
            if not far or far[0][0] > limit:
                break
            cursor = self._cursor = far[0][2]
            self._drain_far()
        return n

    def _drain_far(self) -> None:
        """Move far events that now fall inside the ring window."""
        far = self._far
        end = self._cursor + self._nb
        nb = self._nb
        buckets = self._buckets
        while far and far[0][2] < end:
            entry = heapq.heappop(far)
            self._far_n -= 1
            if entry[4] is None and entry[3].cancelled:
                self._cancelled -= 1
                continue
            heapq.heappush(buckets[entry[2] % nb], entry)
            self._ring_n += 1

    def note_cancel(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled > 32
            and self._cancelled * 2 > self._ring_n + self._far_n
        ):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries from every bucket and the far heap."""
        # All rebuilds are in place (same list objects) so dispatch loops
        # holding references across a callback-triggered compact stay valid.
        nb = self._nb
        buckets = self._buckets
        end = self._cursor + nb
        ring: List[_SchedEntry] = []
        for bucket in buckets:
            ring.extend(e for e in bucket if _entry_live(e))
            del bucket[:]
        far_keep: List[_SchedEntry] = []
        for e in self._far:
            if not _entry_live(e):
                continue
            if e[2] < end:
                ring.append(e)
            else:
                far_keep.append(e)
        for e in ring:
            buckets[e[2] % nb].append(e)
        for bucket in buckets:
            if bucket:
                heapq.heapify(bucket)
        self._far[:] = far_keep
        heapq.heapify(self._far)
        self._ring_n = len(ring)
        self._far_n = len(far_keep)
        self._cancelled = 0

    def pending(self) -> int:
        return self._ring_n + self._far_n - self._cancelled

    def __len__(self) -> int:
        return self._ring_n + self._far_n


class Simulator:
    """Event loop with a virtual clock and seeded random sources.

    All world state a component creates (nodes, links, endpoints, probes,
    faults) hangs off the simulator that built it.  A campaign process
    runs many sessions one after another, so nothing session-scoped may
    live at module level (lint rule D105).

    Parameters
    ----------
    seed:
        Seed for both the ``random.Random``-compatible instance (hot-path
        draws such as per-packet loss) and auxiliary generators derived
        from it.

    The queue is a :class:`CalendarScheduler` and every generator a
    :class:`~repro.simnet.rng.BatchedRandom`.  Both are looked up by
    module-global name at construction time, so patching that one name
    swaps in a reference engine for a differential test.
    """

    def __init__(self, seed: int = 0):
        self.scheduler = CalendarScheduler()
        self._insert = self.scheduler.insert
        self._seq = itertools.count()
        #: fire-and-forget ``schedule``: ``post(delay, fn, *args)`` queues a
        #: bare tuple with no cancellation handle.  The hot-path tier: same
        #: clock, same FIFO sequence space, same ordering guarantees, built
        #: by the scheduler as a single fused call frame.
        self.post: Callable[..., None] = self.scheduler.make_post(self, self._seq)
        #: ``quiet_at(now)``: nothing is queued at or before ``now``, so an
        #: event posted with zero delay would be dispatched next.
        self.quiet_at: Callable[[float], bool] = self.scheduler.quiet_at
        #: current simulation time in seconds (read-only for components)
        self.now = 0.0
        self._running = False
        self.seed = seed
        self.rng = BatchedRandom(seed)
        self.events_processed = 0
        self._free_events: List[Event] = []

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns a cancellable :class:`Event` handle.  Data-plane call
        sites that never cancel should prefer :meth:`post`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        free = self._free_events
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq = next(self._seq)
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            seq = next(self._seq)
            event = Event(time, seq, fn, args)
        event._queue = self.scheduler
        self._insert(time, seq, event, None)
        return event

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        ``time`` must not lie in the past: silently clamping would fire
        the callback at a different instant than requested, which is the
        kind of divergence the determinism suite exists to catch.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (time={time}, now={self.now})"
            )
        return self.schedule(time - self.now, fn, *args)

    def run(self, until: Optional[float] = None) -> None:
        """Process events in timestamp order.

        Stops when the queue is exhausted or the next event is later than
        ``until``.  When ``until`` is given the clock is advanced to it even
        if no event fires exactly there, so back-to-back ``run`` calls see a
        monotone clock.
        """
        self._running = True
        limit = math.inf if until is None else until
        self.events_processed += self.scheduler._run(self, limit)
        if until is not None and self.now < until:
            self.now = until
        self._running = False

    def stop(self) -> None:
        """Stop the loop after the currently executing event returns."""
        self._running = False

    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return self.scheduler.pending()

    # -- random helpers ----------------------------------------------------
    # Centralised so components never touch module-level randomness.

    def uniform(self, lo: float, hi: float) -> float:
        return self.rng.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        return self.rng.expovariate(rate)

    def normal(self, mean: float, std: float) -> float:
        return self.rng.gauss(mean, std)

    def bounded_normal(
        self, mean: float, std: float, lo: float = 0.0, hi: float = math.inf
    ) -> float:
        """Normal draw clamped into ``[lo, hi]`` (netem-style jitter)."""
        draw = self.rng.gauss(mean, std)
        if draw < lo:
            return lo
        if draw > hi:
            return hi
        return draw

    def chance(self, probability: float) -> bool:
        """Bernoulli draw; ``probability`` outside [0, 1] is clamped."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.rng.random() < probability

    def choice(self, seq):
        return self.rng.choice(seq)

    def fork_rng(self, label: str):
        """Derive an independent, reproducible RNG for a subsystem."""
        return BatchedRandom(f"{self.seed}/{label}")
