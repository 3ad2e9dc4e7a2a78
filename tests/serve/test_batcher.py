"""Micro-batcher concurrency contract, on the real event loop.

Everything here runs against a synchronous echo/recording runner, so the
properties under test are pure batching mechanics: requests submitted in
one loop turn share one runner call, a later turn gets its own, the
batch-size cap, per-request error isolation, and result bit-identity
against calling the runner directly.  A ``submit`` followed by
``await asyncio.sleep(0)`` is one turn: the end-of-turn flush was
scheduled before the test task's own wake-up, so it has run when the
task resumes.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import MicroBatcher


class RecordingRunner:
    """Echo runner that logs every batch it is handed."""

    def __init__(self):
        self.batches = []

    def __call__(self, records):
        self.batches.append(list(records))
        for record in records:
            if record == "bad":
                raise ValueError("malformed record")
        return [("scored", record) for record in records]


def run(coro):
    return asyncio.run(coro)


def test_interleaved_clients_get_their_own_results_in_order():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=100)

    async def scenario():
        a = batcher.submit(["a1", "a2"])
        b = batcher.submit(["b1"])
        c = batcher.submit(["c1", "c2", "c3"])
        assert runner.batches == []  # nothing runs inside the turn
        return await asyncio.gather(a, b, c)

    results_a, results_b, results_c = run(scenario())
    assert results_a == [("scored", "a1"), ("scored", "a2")]
    assert results_b == [("scored", "b1")]
    assert results_c == [("scored", "c1"), ("scored", "c2"), ("scored", "c3")]
    # one turn -> one coalesced batch, in arrival order
    assert runner.batches == [["a1", "a2", "b1", "c1", "c2", "c3"]]
    assert batcher.stats["flush_timer"] == 1


def test_later_turn_submit_gets_its_own_call():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=64)

    async def scenario():
        first = batcher.submit(["x"])
        await asyncio.sleep(0)
        # the lone request was scored at the end of its turn
        assert runner.batches == [["x"]]
        assert first.done()
        second = batcher.submit(["y"])
        await asyncio.sleep(0)
        return await first, await second

    assert run(scenario()) == ([("scored", "x")], [("scored", "y")])
    assert runner.batches == [["x"], ["y"]]
    assert batcher.stats["flush_timer"] == 2


def test_full_window_flushes_without_waiting():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=3)
    scheduled = []

    async def scenario():
        loop = asyncio.get_running_loop()
        call_soon = loop.call_soon

        def spy(callback, *args, **kwargs):
            handle = call_soon(callback, *args, **kwargs)
            if callback == batcher.flush:
                scheduled.append(handle)
            return handle

        loop.call_soon = spy
        a = batcher.submit(["a1", "a2"])
        assert runner.batches == []  # still below the cap
        b = batcher.submit(["b1"])
        assert runner.batches == [["a1", "a2", "b1"]]  # flushed inside submit
        await asyncio.sleep(0)
        return await asyncio.gather(a, b)

    run(scenario())
    assert runner.batches == [["a1", "a2", "b1"]]
    assert batcher.stats["flush_full"] == 1
    assert batcher.stats["flush_timer"] == 0
    # the first submit's end-of-turn flush was cancelled by the full flush
    assert len(scheduled) == 1 and scheduled[0].cancelled()


def test_batch_size_cap_never_exceeded():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=4)

    async def scenario():
        futures = [batcher.submit([f"r{i}a", f"r{i}b", f"r{i}c"])
                   for i in range(3)]
        return await asyncio.gather(*futures)

    results = run(scenario())
    assert all(len(batch) <= 4 for batch in runner.batches)
    assert sum(len(batch) for batch in runner.batches) == 9
    for i, per_request in enumerate(results):
        assert per_request == [("scored", f"r{i}a"), ("scored", f"r{i}b"),
                               ("scored", f"r{i}c")]


def test_oversized_single_request_is_chunked_under_the_cap():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=4)

    async def scenario():
        return await batcher.submit([f"r{i}" for i in range(10)])

    results = run(scenario())
    assert [len(batch) for batch in runner.batches] == [4, 4, 2]
    assert results == [("scored", f"r{i}") for i in range(10)]


def test_error_isolation_one_bad_request_only():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=64)

    async def scenario():
        good = batcher.submit(["g1", "g2"])
        bad = batcher.submit(["bad"])
        also_good = batcher.submit(["g3"])
        return await asyncio.gather(good, bad, also_good,
                                    return_exceptions=True)

    good, bad, also_good = run(scenario())
    assert good == [("scored", "g1"), ("scored", "g2")]
    assert isinstance(bad, ValueError)
    assert also_good == [("scored", "g3")]
    assert batcher.stats["request_errors"] == 1


def test_batched_results_identical_to_direct_runner_calls():
    """Batching is routing only: any grouping yields the runner's answers."""
    requests = [[f"q{i}-{j}" for j in range(i % 4 + 1)] for i in range(12)]
    direct = [[("scored", r) for r in request] for request in requests]

    for max_batch in (1, 3, 64):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=max_batch)

        async def scenario():
            return await asyncio.gather(
                *[batcher.submit(request) for request in requests])

        assert run(scenario()) == direct


@settings(max_examples=60, deadline=None)
@given(
    turns=st.lists(
        st.lists(st.integers(min_value=1, max_value=6), max_size=6),
        min_size=1, max_size=6),
    max_batch=st.integers(min_value=1, max_value=8),
)
def test_random_turns_give_their_own_capped_calls(turns, max_batch):
    """Requests split into random turns: each turn is scored by its own calls."""
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=max_batch)
    turn_records = []
    requests = []
    for t, sizes in enumerate(turns):
        turn = [[f"t{t}-r{i}-{j}" for j in range(size)]
                for i, size in enumerate(sizes)]
        requests.append(turn)
        turn_records.append([record for request in turn for record in request])

    async def scenario():
        futures, calls_after_turn = [], []
        for turn in requests:
            futures.extend(batcher.submit(request) for request in turn)
            await asyncio.sleep(0)
            calls_after_turn.append(len(runner.batches))
        return await asyncio.gather(*futures), calls_after_turn

    results, calls_after_turn = run(scenario())
    start = 0
    for records, end in zip(turn_records, calls_after_turn):
        calls = runner.batches[start:end]
        assert all(0 < len(call) <= max_batch for call in calls)
        assert [record for call in calls for record in call] == records
        start = end
    assert results == [[("scored", r) for r in request]
                       for turn in requests for request in turn]


def test_drain_flush_resolves_everything():
    runner = RecordingRunner()
    batcher = MicroBatcher(runner, max_batch=64)

    async def scenario():
        future = batcher.submit(["x"])
        batcher.flush("drain")
        assert future.done()
        await asyncio.sleep(0)
        return await future

    assert run(scenario()) == [("scored", "x")]
    assert batcher.stats["flush_drain"] == 1
    assert batcher.stats["flush_timer"] == 0
    assert batcher.pending_records == 0


def test_knob_validation():
    with pytest.raises(ValueError):
        MicroBatcher(lambda r: r, max_batch=0)
