"""Unit tests for wired channels: serialization, queueing, loss, shaping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.link import Channel, NetemChannel
from repro.simnet.packet import Packet, UDP


def make_pkt(payload=1000):
    return Packet(src="a", dst="b", sport=1, dport=2, proto=UDP, payload_len=payload)


def collect(sim, channel, n, payload=1000):
    got = []
    channel.connect(lambda pkt: got.append((sim.now, pkt)))
    for _ in range(n):
        channel.send(make_pkt(payload))
    sim.run()
    return got


def test_serialization_delay():
    sim = Simulator()
    ch = Channel(sim, "c", rate_bps=8000.0)  # 1000 B/s
    got = collect(sim, ch, 1, payload=1000 - 28)
    assert got[0][0] == pytest.approx(1.0)


def test_propagation_delay_added():
    sim = Simulator()
    ch = Channel(sim, "c", rate_bps=8e6, delay=0.5)
    got = collect(sim, ch, 1)
    assert got[0][0] == pytest.approx(0.5 + make_pkt().size * 8 / 8e6)


def test_fifo_order_preserved_with_jitter():
    sim = Simulator(seed=2)
    ch = Channel(sim, "c", rate_bps=10e6, delay=0.05, jitter=0.04)
    got = collect(sim, ch, 50)
    ids = [pkt.pkt_id for _, pkt in got]
    assert ids == sorted(ids)
    times = [t for t, _ in got]
    assert times == sorted(times)


def test_queue_limit_tail_drop():
    sim = Simulator()
    ch = Channel(sim, "c", rate_bps=8000.0, queue_limit_bytes=3000)
    ch.connect(lambda pkt: None)
    accepted = [ch.send(make_pkt(972)) for _ in range(10)]
    # ~1000B packets against a 3000B queue: only the first few fit.
    assert accepted.count(True) < 10
    assert ch.pkts_dropped_queue == accepted.count(False)


def test_unconnected_channel_raises():
    sim = Simulator()
    ch = Channel(sim, "c", rate_bps=1e6)
    with pytest.raises(RuntimeError):
        ch.send(make_pkt())


def test_invalid_rate_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, "c", rate_bps=0)
    ch = Channel(sim, "c", rate_bps=1e6)
    with pytest.raises(ValueError):
        ch.set_rate(-1)


def test_loss_rate_statistics():
    sim = Simulator(seed=3)
    ch = Channel(sim, "c", rate_bps=1e9, loss=0.3, queue_limit_bytes=10**9)
    got = collect(sim, ch, 2000)
    observed = 1 - len(got) / 2000
    assert 0.25 < observed < 0.35
    assert ch.pkts_dropped_loss == 2000 - len(got)


def test_burst_loss_preserves_average_rate():
    sim = Simulator(seed=4)
    ch = Channel(
        sim, "c", rate_bps=1e9, loss=0.1, loss_burst=4.0, queue_limit_bytes=10**9
    )
    got = collect(sim, ch, 6000)
    observed = 1 - len(got) / 6000
    assert 0.06 < observed < 0.14


def test_burst_loss_clusters_drops():
    """With bursts, consecutive drops appear far more often than i.i.d."""

    def run_lengths(burst):
        sim = Simulator(seed=5)
        ch = Channel(sim, "c", rate_bps=1e9, loss=0.1, loss_burst=burst)
        ch.connect(lambda pkt: None)
        pattern = []
        for _ in range(4000):
            before = ch.pkts_dropped_loss
            ch.send(make_pkt())
            sim.run()
            pattern.append(ch.pkts_dropped_loss > before)
        # count drop pairs
        return sum(1 for a, b in zip(pattern, pattern[1:]) if a and b)

    assert run_lengths(4.0) > run_lengths(1.0) * 2


def test_loss_burst_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, "c", rate_bps=1e6, loss_burst=0.5)


BAD_IMPAIRMENTS = [
    ("delay", -0.5),
    ("delay", float("nan")),
    ("delay", float("inf")),
    ("jitter", -0.01),
    ("jitter", float("nan")),
    ("jitter", float("inf")),
    ("loss", -0.1),
    ("loss", 1.5),
    ("loss", float("nan")),
]


@pytest.mark.parametrize("name, value", BAD_IMPAIRMENTS)
def test_bad_impairment_rejected_at_construction(name, value):
    sim = Simulator()
    with pytest.raises(ValueError, match=name):
        Channel(sim, "c", rate_bps=1e6, **{name: value})
    with pytest.raises(ValueError, match=name):
        NetemChannel.dsl(sim, "d", **{name: value})


@pytest.mark.parametrize("name, value", BAD_IMPAIRMENTS)
def test_bad_impairment_rejected_at_runtime(name, value):
    sim = Simulator()
    ch = Channel(sim, "c", rate_bps=1e6, delay=0.01, jitter=0.002, loss=0.1)
    settings_before = (ch.delay, ch.jitter, ch.loss)
    with pytest.raises(ValueError, match=name):
        ch.set_impairments(**{"delay": 0.02, "jitter": 0.003, "loss": 0.2, name: value})
    assert (ch.delay, ch.jitter, ch.loss) == settings_before


def test_nan_loss_burst_rejected():
    with pytest.raises(ValueError, match="loss_burst"):
        Channel(Simulator(), "c", rate_bps=1e6, loss_burst=float("nan"))


@pytest.mark.parametrize("burst", [1.0, 3.0])
def test_total_loss_drops_everything_without_a_draw(burst):
    sim = Simulator(seed=12)
    ch = Channel(sim, "c", rate_bps=1e9, loss=1.0, loss_burst=burst)
    assert collect(sim, ch, 50) == []
    assert ch.pkts_dropped_loss == 50
    assert sim.rng.random() == Simulator(seed=12).rng.random()


def test_boundary_impairments_accepted():
    sim = Simulator()
    ch = Channel(sim, "c", rate_bps=1e6, delay=0.0, jitter=0.0, loss=1.0)
    ch.set_impairments(delay=2, jitter=0, loss=0)
    assert (ch.delay, ch.jitter, ch.loss) == (2.0, 0.0, 0.0)
    assert all(type(v) is float for v in (ch.delay, ch.jitter, ch.loss))


def test_runtime_shaping_changes_throughput():
    sim = Simulator()
    ch = Channel(sim, "c", rate_bps=8e6)
    got = []
    ch.connect(lambda pkt: got.append(sim.now))
    ch.send(make_pkt(1000 - 28))
    sim.run()
    first = got[-1]
    ch.set_rate(8e3)
    ch.send(make_pkt(1000 - 28))
    sim.run()
    assert got[-1] - first == pytest.approx(1.0)


def test_utilization_tracks_busy_time():
    sim = Simulator()
    ch = Channel(sim, "c", rate_bps=8000.0)
    collect(sim, ch, 2, payload=972)  # 2 x 1s of serialization
    assert ch.utilization(horizon=4.0) == pytest.approx(0.5)


def test_netem_presets():
    sim = Simulator()
    dsl = NetemChannel.dsl(sim, "d")
    assert dsl.rate_bps == pytest.approx(7.8e6)
    assert dsl.delay == pytest.approx(0.05)
    mobile = NetemChannel.mobile(sim, "m")
    assert mobile.rate_bps == pytest.approx(5.22e6)
    assert mobile.loss == pytest.approx(0.014)
    with pytest.raises(ValueError):
        NetemChannel(sim, "x", "cable")


def test_netem_overrides():
    sim = Simulator()
    ch = NetemChannel(sim, "d", "dsl", delay=0.01, loss=0.0)
    assert ch.delay == 0.01
    assert ch.loss == 0.0
    assert ch.rate_bps == pytest.approx(7.8e6)


@settings(max_examples=25, deadline=None)
@given(
    rate=st.floats(min_value=1e4, max_value=1e9),
    n=st.integers(min_value=1, max_value=30),
)
def test_conservation_no_loss(rate, n):
    """Without loss and within queue limits, every packet is delivered."""
    sim = Simulator()
    ch = Channel(sim, "c", rate_bps=rate, queue_limit_bytes=10**9)
    got = collect(sim, ch, n)
    assert len(got) == n
    assert ch.pkts_sent == n
