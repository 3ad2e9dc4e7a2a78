"""Wired channels: serialization, queueing, propagation, loss and shaping.

A :class:`Channel` is one direction of a link.  It models

* a drop-tail FIFO queue bounded in bytes,
* serialization at the (runtime-adjustable) line rate,
* fixed propagation delay plus optional normally-distributed jitter, and
* i.i.d. random loss,

which is exactly the pipeline ``tc``/``netem`` applies in the paper's
testbed (Table 3).  :class:`NetemChannel` is a thin preset wrapper that
takes the Table 3 parameters directly.  Channels expose counters the
link-layer probe turns into features (utilisation, drops, queue delay).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Optional

from repro.simnet.engine import Simulator
from repro.simnet.packet import Packet

Deliver = Callable[[Packet], None]


def _seconds(name: str, value: float) -> float:
    """``value`` as a float, or ``ValueError`` unless finite and >= 0."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


class Channel:
    """One direction of a point-to-point wired link."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        delay: float = 0.0,
        jitter: float = 0.0,
        loss: float = 0.0,
        loss_burst: float = 1.0,
        queue_limit_bytes: int = 256 * 1024,
    ):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if not loss_burst >= 1.0:
            raise ValueError("loss_burst is a mean burst length, >= 1")
        self.sim = sim
        self.name = name
        self.rate_bps = float(rate_bps)
        self.delay = self.jitter = self.loss = 0.0
        self.set_impairments(delay, jitter, loss)
        self.loss_burst = float(loss_burst)
        self._loss_state_bad = False
        self.queue_limit_bytes = int(queue_limit_bytes)
        self.receiver: Optional[Deliver] = None

        self._queue: deque[Packet] = deque()
        self._queued_bytes = 0
        self._transmitting = False
        self._last_arrival = 0.0

        # Counters consumed by the link/physical-layer probe.
        self.pkts_sent = 0
        self.bytes_sent = 0
        self.pkts_dropped_queue = 0
        self.pkts_dropped_loss = 0
        self.busy_time = 0.0
        self.queue_delay_sum = 0.0
        self._enqueue_times: deque[float] = deque()

    # -- configuration -----------------------------------------------------

    def connect(self, receiver: Deliver) -> None:
        """Set the delivery callback at the far end of the channel."""
        self.receiver = receiver

    def set_rate(self, rate_bps: float) -> None:
        """Re-shape the channel at runtime (``tc`` rate change)."""
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.rate_bps = float(rate_bps)

    def set_impairments(
        self,
        delay: Optional[float] = None,
        jitter: Optional[float] = None,
        loss: Optional[float] = None,
    ) -> None:
        """Adjust netem-style delay/jitter/loss at runtime.

        Raises ``ValueError`` naming the parameter unless delay and jitter
        are finite and non-negative and loss lies in ``[0, 1]``.  Nothing
        changes when any value is rejected.
        """
        if delay is not None:
            delay = _seconds("delay", delay)
        if jitter is not None:
            jitter = _seconds("jitter", jitter)
        if loss is not None:
            loss = float(loss)
            if not 0.0 <= loss <= 1.0:
                raise ValueError(f"loss must be in [0, 1], got {loss!r}")
        if delay is not None:
            self.delay = delay
        if jitter is not None:
            self.jitter = jitter
        if loss is not None:
            self.loss = loss

    # -- data path ----------------------------------------------------------

    def send(self, pkt: Packet) -> bool:
        """Enqueue ``pkt`` for transmission.

        Returns ``False`` when the packet was tail-dropped because the queue
        is full.  Random (netem) loss is applied after serialization so that
        lost packets still consume link capacity, as on a real wire.
        """
        if self.receiver is None:
            raise RuntimeError(f"channel {self.name} is not connected")
        size = pkt.size
        if self._queued_bytes + size > self.queue_limit_bytes:
            self.pkts_dropped_queue += 1
            return False
        if self._transmitting:
            self._queue.append(pkt)
            self._enqueue_times.append(self.sim.now)
            self._queued_bytes += size
        else:
            # Idle transmitter: the packet starts at once, with no queue
            # delay (the dequeue of _tx_done, skipping the queue).
            self._transmitting = True
            tx_time = size * 8.0 / self.rate_bps
            self.busy_time += tx_time
            self.sim.post(tx_time, self._tx_done, pkt)
        return True

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def utilization(self, horizon: float) -> float:
        """Fraction of ``horizon`` seconds the transmitter was busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)

    # -- internals -----------------------------------------------------------

    def _draw_loss(self, loss: float) -> bool:
        """Gilbert-Elliott loss draw at a rate ``loss`` in ``(0, 1]``.

        With ``loss_burst == 1`` this degenerates to i.i.d. loss at rate
        ``loss``; larger values keep the average loss rate but group drops
        into bursts of that mean length, as observed on access links.  A
        probability outside ``(0, 1)`` decides without a draw, as
        :meth:`Simulator.chance` does.
        """
        if loss >= 1.0:
            return True
        if self.loss_burst <= 1.0:
            return self.sim.rng.random() < loss
        leave_bad = 1.0 / self.loss_burst
        if self._loss_state_bad:
            p = leave_bad
        else:
            p = leave_bad * loss / (1.0 - loss)
        if p <= 0.0:
            return self._loss_state_bad
        if p >= 1.0 or self.sim.rng.random() < p:
            self._loss_state_bad = not self._loss_state_bad
        return self._loss_state_bad

    def _tx_done(self, pkt: Packet) -> None:
        self.pkts_sent += 1
        self.bytes_sent += pkt.size
        sim = self.sim
        loss = self.loss
        if loss <= 0.0:
            self._loss_state_bad = False
            lost = False
        else:
            lost = self._draw_loss(loss)
        inline = False
        if lost:
            self.pkts_dropped_loss += 1
        else:
            latency = self.delay
            if self.jitter > 0.0:
                # Inline of sim.bounded_normal(latency, jitter, lo=0.0).
                draw = sim.rng.gauss(latency, self.jitter)
                latency = draw if draw > 0.0 else 0.0
            # Jitter must not reorder: a wire is FIFO even when delay varies
            # (netem can reorder, physical access links do not).
            now = sim.now
            arrival = now + latency
            last = self._last_arrival
            if arrival < last:
                arrival = last
            self._last_arrival = arrival
            # A zero-latency delivery posted now would be the very next
            # event dispatched when nothing else is due at ``now``, so it
            # runs inline below instead -- after the next transmission is
            # posted, which keeps every later post in the same relative
            # order.
            if arrival == now and sim.quiet_at(now):
                inline = True
            else:
                sim.post(arrival - now, self.receiver, pkt)
        queue = self._queue
        if queue:
            next_pkt = queue.popleft()
            enqueued_at = self._enqueue_times.popleft()
            size = next_pkt.size
            self._queued_bytes -= size
            self.queue_delay_sum += sim.now - enqueued_at
            tx_time = size * 8.0 / self.rate_bps
            self.busy_time += tx_time
            sim.post(tx_time, self._tx_done, next_pkt)
        else:
            self._transmitting = False
        if inline:
            self.receiver(pkt)


class NetemChannel(Channel):
    """Channel preconfigured with the paper's Table 3 netem settings.

    >>> NetemChannel.dsl(sim, "wan.down").delay
    0.05
    """

    #: (rate_bps, delay, jitter, loss) presets derived from Table 3.
    PRESETS = {
        "dsl": (7.8e6, 0.050, 0.020, 0.0075),
        "mobile": (5.22e6, 0.100, 0.030, 0.014),
    }

    def __init__(self, sim: Simulator, name: str, preset: str, **overrides):
        if preset not in self.PRESETS:
            raise ValueError(f"unknown netem preset {preset!r}")
        rate, delay, jitter, loss = self.PRESETS[preset]
        params = {
            "rate_bps": rate,
            "delay": delay,
            "jitter": jitter,
            "loss": loss,
            # ISP traces show clustered drops; bursts of ~3 keep the mean
            # loss of Table 3 while matching access-link behaviour.
            "loss_burst": 3.0,
        }
        params.update(overrides)
        super().__init__(sim, name, **params)
        self.preset = preset

    @classmethod
    def dsl(cls, sim: Simulator, name: str, **overrides) -> "NetemChannel":
        return cls(sim, name, "dsl", **overrides)

    @classmethod
    def mobile(cls, sim: Simulator, name: str, **overrides) -> "NetemChannel":
        return cls(sim, name, "mobile", **overrides)


class DuplexLink:
    """A pair of channels forming a full-duplex link between two nodes."""

    def __init__(self, forward: Channel, backward: Channel):
        self.forward = forward
        self.backward = backward

    def set_rate(self, rate_bps: float) -> None:
        self.forward.set_rate(rate_bps)
        self.backward.set_rate(rate_bps)

    def set_impairments(self, **kwargs) -> None:
        self.forward.set_impairments(**kwargs)
        self.backward.set_impairments(**kwargs)
