"""Self-tests of the benchmark harness (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import asyncio
import hashlib
import heapq
import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import loadgen  # noqa: E402
from perfbench.checks import (  # noqa: E402
    check_campaign,
    check_served,
    check_spool_diagnose,
)
from perfbench.stats import (  # noqa: E402
    MIN_BEYOND,
    fast,
    layer_block,
    split_repeats,
    spread,
    supported_percentile,
    tail,
    unit_rate,
)


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------ percentile rule


@pytest.mark.parametrize("n", [11, 24, 40, 100, 999, 1000, 5000])
def test_tail_leaves_at_least_ten_samples_beyond(n: int) -> None:
    samples = [float(i) for i in range(n)]
    pct, value, beyond = tail(samples, 99.0)
    assert beyond >= MIN_BEYOND
    assert sum(1 for s in samples if s > value) == beyond
    # one rank higher would leave fewer than ten beyond, unless capped at p99
    if pct < 99.0:
        assert beyond == MIN_BEYOND


def test_tail_keeps_the_preferred_percentile_when_supported() -> None:
    samples = [float(i) for i in range(2000, 0, -1)]
    assert tail(samples, 99.0) == (99.0, 1980.0, 20)


def test_tail_refuses_too_few_samples() -> None:
    assert supported_percentile(MIN_BEYOND, 50.0) is None
    with pytest.raises(ValueError):
        tail([1.0] * MIN_BEYOND, 50.0)


# ------------------------------------------------- open loop under a fake clock


class FakeClock:
    """Virtual time: ``sleep`` parks a task until the clock is advanced to it."""

    def __init__(self) -> None:
        self.now = 0.0
        self._sleepers: list = []
        self._seq = itertools.count()

    def __call__(self) -> float:
        return self.now

    async def sleep(self, delay: float) -> None:
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(self._sleepers, (self.now + max(0.0, delay), next(self._seq), future))
        await future

    async def run(self, coro):
        task = asyncio.ensure_future(coro)
        while not task.done():
            for _ in range(20):  # let every runnable task reach its next sleep
                await asyncio.sleep(0)
            if self._sleepers and not task.done():
                wake, _, future = heapq.heappop(self._sleepers)
                self.now = max(self.now, wake)
                future.set_result(None)
        return task.result()


def test_open_loop_times_requests_from_their_due_time() -> None:
    clock = FakeClock()
    service_s = 0.025

    async def send(conn: object, index: int) -> int:
        await clock.sleep(service_s)
        return 200

    async def reset(conn: object) -> None:
        pass

    due = [0.0, 0.010, 0.020]
    result = asyncio.run(clock.run(loadgen.open_loop(
        send, ["only"], due, 3, reset, clock=clock, sleep=clock.sleep)))
    # one connection: request 1 waits for request 0, request 2 for request 1
    assert result.lags == pytest.approx([0.0, 0.015, 0.030])
    assert result.latencies == pytest.approx([0.025, 0.040, 0.055])
    assert (result.attempted, result.failed) == (3, 0)
    assert result.elapsed == pytest.approx(0.075)


def test_open_loop_counts_every_failure_against_attempts() -> None:
    clock = FakeClock()
    resets = []

    async def send(conn: object, index: int) -> int:
        await clock.sleep(0.001)
        if index == 1:
            raise ConnectionResetError("reset by peer")
        return 503 if index == 2 else 200

    async def reset(conn: object) -> None:
        resets.append(conn)

    result = asyncio.run(clock.run(loadgen.open_loop(
        send, ["a", "b"], [0.0, 0.01, 0.02, 0.03], 4, reset,
        clock=clock, sleep=clock.sleep)))
    assert (result.attempted, result.failed) == (4, 2)
    assert len(result.latencies) == 2
    assert result.errors == {"ConnectionResetError": 1, "http_503": 1}
    assert len(resets) == 1


def test_poisson_schedule_is_seeded_and_bounded() -> None:
    first = loadgen.poisson_schedule(100.0, 2.0, seed=7)
    assert first == loadgen.poisson_schedule(100.0, 2.0, seed=7)
    assert first != loadgen.poisson_schedule(100.0, 2.0, seed=8)
    assert all(0 < t < 2.0 for t in first) and first == sorted(first)
    assert 140 < len(first) < 260


# ----------------------------------------------------- layer-sum arithmetic


def test_layer_block_sums_to_end_to_end() -> None:
    block = layer_block(2.0, {"a": 1.0, "b": 0.5}, repeats=4, repeat_spread=0.1,
                        untraced=1.6)
    layers = block["layers"]
    assert block["unattributed_s"] == pytest.approx(0.5)
    assert block["unattributed_share"] == pytest.approx(0.25)
    assert layers["a"]["share"] + layers["b"]["share"] + block["unattributed_share"] \
        == pytest.approx(1.0)
    assert block["tracing_overhead"] == pytest.approx(0.25)
    assert (block["repeats"], block["spread"]) == (4, 0.1)


def test_layers_exceeding_end_to_end_show_negative_unattributed() -> None:
    block = layer_block(1.0, {"a": 1.2})
    assert block["unattributed_s"] == pytest.approx(-0.2)
    assert "tracing_overhead" not in block


def test_repeats_and_spread() -> None:
    groups = split_repeats(list(range(11)), 5)
    assert [len(g) for g in groups] == [3, 2, 2, 2, 2]
    assert sum(groups, []) == list(range(11))
    assert spread([10.0] * 5) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_unit_rate_follows_the_fast_mode_whatever_its_share() -> None:
    # the host is in its slow mode (1.7x) for 15%, 50% or 85% of the units
    for slow_share in (0.15, 0.5, 0.85):
        slow = round(100 * slow_share)
        units = [0.02] * (100 - slow) + [0.034] * slow
        assert unit_rate(units, 64) == pytest.approx(3200.0)
    assert fast([3.0, 1.0, 2.0]) == 1.0  # nearest rank: the 1st of 3
    assert fast([float(i) for i in range(1, 101)]) == 10.0
    with pytest.raises(ValueError):
        unit_rate([], 64)


# ---------------------------------------------------- output checks fail


def _identity(line: str) -> str:
    return line


def test_campaign_check_passes_and_fails_on_perturbed_spool() -> None:
    lines = ['{"a":1}', '{"a":2}']
    digest = hashlib.sha256("".join(l + "\n" for l in lines).encode()).hexdigest()
    assert check_campaign(lines, digest, digest, _identity) == []
    assert check_campaign(lines, digest, None, _identity) == []
    perturbed = ['{"a":1}', '{"a":3}']
    other = hashlib.sha256("".join(l + "\n" for l in perturbed).encode()).hexdigest()
    assert check_campaign(perturbed, other, digest, _identity)
    lossy = lambda line: line.replace("3", "3.0")  # noqa: E731
    assert check_campaign(perturbed, other, None, lossy)


def test_spool_check_fails_on_perturbed_reports() -> None:
    assert check_spool_diagnose(["d1", "d1"], "d1") == []
    assert check_spool_diagnose(["d1", "d2"], "d1")
    assert check_spool_diagnose([], "d1")


def test_served_check_fails_on_perturbed_diagnoses() -> None:
    diagnoses = [{"exact": "good", "severity": "good"}]
    expected = [canonical(diagnoses)]
    body = canonical({"schema": "s", "model": {}, "diagnoses": diagnoses}).encode()
    assert check_served({0: body}, expected, 0, canonical) == []
    wrong = body.replace(b'"exact":"good"', b'"exact":"wan_congestion_mild"')
    assert check_served({0: wrong}, expected, 0, canonical)
    assert check_served({0: body}, expected, 1, canonical)
    assert check_served({0: b"not json"}, expected, 0, canonical)
    assert check_served({}, expected, 0, canonical)
