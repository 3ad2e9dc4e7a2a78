"""Scheduler semantics, pinned against both implementations.

The calendar queue must be observably identical to the reference binary
heap kept in ``tests/oracles.py``: same firing order (time, then FIFO
among equal timestamps, across both scheduling tiers), same cancellation
semantics, and a pending queue bounded by the live event count even under
heavy schedule/cancel churn.  A zero-latency channel delivery that runs
inline when nothing else is due must be indistinguishable from the posted
event it replaces (``posted_delivery`` in ``tests/oracles.py``).
"""

import contextlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simnet.engine import CalendarScheduler, Simulator
from repro.simnet.link import Channel
from repro.simnet.packet import UDP, Packet
from tests.oracles import ReferenceScheduler, posted_delivery, reference_scheduler

ENGINES = {
    "calendar": (contextlib.nullcontext, CalendarScheduler),
    "reference": (reference_scheduler, ReferenceScheduler),
}


@pytest.fixture(params=sorted(ENGINES))
def sim(request):
    """A fresh simulator on the parametrised scheduler."""
    patch, expected = ENGINES[request.param]
    with patch():
        sim = Simulator()
    assert type(sim.scheduler) is expected
    return sim


# ------------------------------------------------------------- ordering


def test_equal_timestamp_fifo_across_tiers(sim):
    """schedule() and post() share one sequence space: FIFO among ties."""
    fired = []
    sim.schedule(1.0, fired.append, 0)
    sim.post(1.0, fired.append, 1)
    sim.schedule(1.0, fired.append, 2)
    sim.post(1.0, fired.append, 3)
    sim.run()
    assert fired == [0, 1, 2, 3]


def test_post_fires_in_time_order(sim):
    fired = []
    for delay in (2.0, 0.5, 1.5, 0.25):
        sim.post(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(fired)


def test_post_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.post(-0.01, lambda: None)


def test_schedule_at_in_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_far_horizon_events_fire_in_order(sim):
    """Events beyond the calendar ring (overflow heap) stay ordered."""
    fired = []
    # Mix of near (in-ring) and far (seconds out: overflow) timestamps.
    for delay in (5.0, 0.001, 120.0, 0.3, 60.0, 0.002, 600.0):
        sim.post(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == 600.0


def test_run_limit_between_buckets(sim):
    """run(until) between two events leaves the later one queued."""
    fired = []
    sim.post(0.1, fired.append, "a")
    sim.post(90.0, fired.append, "b")  # far bucket for the calendar
    sim.run(until=1.0)
    assert fired == ["a"] and sim.now == 1.0
    sim.run(until=100.0)
    assert fired == ["a", "b"]


# ------------------------------------------------------------- cancellation


def test_cancel_during_dispatch_is_safe(sim):
    """A callback may cancel a later pending event mid-dispatch."""
    fired = []
    victim = sim.schedule(2.0, fired.append, "victim")
    sim.schedule(1.0, victim.cancel)
    sim.schedule(3.0, fired.append, "after")
    sim.run()
    assert fired == ["after"]
    assert sim.pending() == 0


def test_cancel_same_timestamp_during_dispatch(sim):
    """Cancelling an event scheduled at the *current* instant is honoured."""
    fired = []
    victim = sim.schedule(1.0, fired.append, "victim")

    def killer():
        fired.append("killer")
        victim.cancel()

    # Same timestamp, earlier sequence number: runs first.
    sim.scheduler.insert(1.0, -1, _event_for(sim, killer), None)
    sim.run()
    assert fired == ["killer"]


def _event_for(sim, fn):
    from repro.simnet.engine import Event

    event = Event(1.0, -1, fn, ())
    event._queue = sim.scheduler
    return event


def test_mass_cancel_keeps_queue_bounded(sim):
    """Satellite (a): 10k scheduled-then-cancelled timers must not leak.

    Lazy purging alone would leave every cancelled entry queued until its
    timestamp; the >50%-dead compaction bound keeps the backlog
    proportional to the live count instead.
    """
    events = [sim.schedule(10.0 + i * 0.001, lambda: None) for i in range(10_000)]
    keep = set(events[::100])  # 100 survivors
    peak = 0
    for event in events:
        if event not in keep:
            event.cancel()
            peak = max(peak, len(sim.scheduler))
    # The queue may lag behind the live count, but never by more than the
    # compaction threshold's factor (plus its small constant floor).
    live = len(keep)
    assert sim.pending() == live
    assert len(sim.scheduler) <= 2 * live + 66
    sim.run()
    assert len(sim.scheduler) == 0
    assert sim.pending() == 0


def test_rearm_churn_stays_bounded(sim):
    """RTO-style rearming (schedule+cancel per tick) must not accumulate."""
    state = {"timer": None, "ticks": 0}

    def tick():
        state["ticks"] += 1
        if state["timer"] is not None:
            state["timer"].cancel()
        if state["ticks"] < 5_000:
            state["timer"] = sim.schedule(1.0, lambda: None)
            sim.post(0.01, tick)
        else:
            state["timer"] = None

    sim.post(0.0, tick)
    sim.run(until=80.0)
    assert state["ticks"] == 5_000
    assert len(sim.scheduler) <= 70  # dead entries purged, not accumulated


# ------------------------------------------------------------- pooling


def test_event_objects_are_recycled(sim):
    for _ in range(50):
        sim.schedule(0.001, lambda: None)
    sim.run()
    assert len(sim._free_events) > 0
    before = len(sim._free_events)
    sim.schedule(0.001, lambda: None)
    assert len(sim._free_events) == before - 1  # reused, not allocated


# ------------------------------------------------------------- differential


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2.0),
            st.sampled_from(["schedule", "post", "cancel"]),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_calendar_matches_reference(ops):
    """Any mix of schedule/post/cancel fires identically on both."""

    def run(patch):
        with patch():
            sim = Simulator()
        fired = []
        cancellable = []
        for i, (delay, kind) in enumerate(ops):
            if kind == "post":
                sim.post(delay, fired.append, ("p", i, delay))
            else:
                event = sim.schedule(delay, fired.append, ("s", i, delay))
                cancellable.append(event)
                if kind == "cancel" and len(cancellable) >= 2:
                    cancellable[len(cancellable) // 2].cancel()
        sim.run()
        return fired, sim.now, sim.pending()

    assert run(contextlib.nullcontext) == run(reference_scheduler)


# ------------------------------------------------------- inline delivery


def _quiet_seen(sim, setup):
    """What quiet_at(now) answers inside a callback at t=0.1 after ``setup``."""
    seen = []
    sim.post(0.1, lambda: seen.append(sim.quiet_at(sim.now)))
    setup()
    sim.run()
    return seen[0]


def test_quiet_at_with_nothing_else_due(sim):
    assert _quiet_seen(sim, lambda: sim.post(0.15, lambda: None))


def test_quiet_at_sees_a_tie_at_now(sim):
    assert not _quiet_seen(sim, lambda: sim.post(0.1, lambda: None))


def test_quiet_at_counts_a_cancelled_timer_at_now(sim):
    assert not _quiet_seen(sim, lambda: sim.schedule(0.1, lambda: None).cancel())


def _zero_delay_trace(ops, patch, inline):
    """Fire ``ops`` over two chained zero-delay channels; log what runs when.

    Each op is ``(kind, slot)`` at time ``slot / 2``: ``send`` a packet
    into the first channel, ``post`` an unrelated event, ``cancel`` a
    timer at that instant, or set the first channel's delay to ``1.5``
    or ``0``.  A tx takes exactly 0.5 s, so completions tie with the ops
    on the half-second grid, and a zero-delay packet can finish its tx
    while an earlier packet is still in flight: its delivery waits for
    that arrival, so it must be posted.
    """
    with patch(), (contextlib.nullcontext() if inline else posted_delivery()):
        sim = Simulator()
    log = []
    first = Channel(sim, "first", rate_bps=16000.0, queue_limit_bytes=10**6)
    second = Channel(sim, "second", rate_bps=16000.0, queue_limit_bytes=10**6)

    def hop(pkt):
        log.append(("hop", pkt.pkt_id, sim.now))
        second.send(pkt)

    def arrive(pkt):
        log.append(("rx", pkt.pkt_id, sim.now))
        sim.post(0.0, log.append, ("after", pkt.pkt_id, sim.now))

    first.connect(hop)
    second.connect(arrive)
    ids = []
    for i, (kind, slot) in enumerate(ops):
        t = slot / 2
        if kind == "send":
            pkt = Packet("a", "b", 1, 2, UDP, 972)  # 1000 B: 0.5 s at 16 kb/s
            ids.append(pkt.pkt_id)
            sim.post(t, first.send, pkt)
        elif kind == "post":
            sim.post(t, lambda i=i: log.append(("ev", i, sim.now)))
        elif kind == "cancel":
            sim.post(t, lambda: sim.schedule(0.0, log.append, "dead").cancel())
        else:
            delay = 1.5 if kind == "delay" else 0.0
            sim.post(t, first.set_impairments, delay)
    sim.run()
    # packet ids differ between runs; number them in send order
    index = {pkt_id: n for n, pkt_id in enumerate(ids)}
    return [
        (kind, key if kind == "ev" else index[key], at) for kind, key, at in log
    ], sim.now


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["send", "send", "post", "cancel", "delay", "undelay"]),
            st.integers(min_value=0, max_value=8),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from(sorted(ENGINES)),
)
# another event due at the delivery's instant
@example([("send", 0), ("post", 1)], "calendar")
# a cancelled timer sits at that instant
@example([("send", 0), ("cancel", 1)], "calendar")
# delay set to 0 at runtime while an earlier arrival is still in flight
@example([("delay", 0), ("send", 0), ("send", 0), ("undelay", 1)], "calendar")
def test_inline_delivery_matches_posted(ops, engine):
    """Deliveries run in the same order at the same times, inline or not."""
    patch = ENGINES[engine][0]
    assert _zero_delay_trace(ops, patch, inline=True) == _zero_delay_trace(
        ops, patch, inline=False
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_inline_delivery_skips_the_posted_event(engine):
    """An inline delivery is not dispatched, so it is not counted."""

    def events(inline):
        with ENGINES[engine][0](), (
            contextlib.nullcontext() if inline else posted_delivery()
        ):
            sim = Simulator()
        ch = Channel(sim, "c", rate_bps=16000.0)
        ch.connect(lambda pkt: None)
        for _ in range(3):
            ch.send(Packet("a", "b", 1, 2, UDP, 972))
        sim.run()
        return sim.events_processed

    assert (events(True), events(False)) == (3, 6)
