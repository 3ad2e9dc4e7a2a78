"""Scheduler semantics, pinned against both implementations.

The calendar queue must be observably identical to the reference binary
heap kept in ``tests/oracles.py``: same firing order (time, then FIFO
among equal timestamps, across both scheduling tiers), same cancellation
semantics, and a pending queue bounded by the live event count even under
heavy schedule/cancel churn.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.engine import CalendarScheduler, Simulator
from tests.oracles import ReferenceScheduler, reference_scheduler

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
