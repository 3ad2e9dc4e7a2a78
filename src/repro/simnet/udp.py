"""UDP traffic sources and sinks (the testbed's ``iperf`` and D-ITG flows).

:class:`UdpSender` produces constant-bitrate or on/off traffic with
configurable packet sizes; :class:`UdpSink` counts what arrives.  These are
used both for the congestion faults of Table 2 (``iperf`` UDP between the
wired client, the router and the server) and as building blocks for the
D-ITG-style background generators in :mod:`repro.traffic`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.simnet.engine import Simulator
from repro.simnet.node import Node
from repro.simnet.packet import FlowKey, Packet, UDP


class UdpSender:
    """Paced UDP source.

    Parameters
    ----------
    rate_bps:
        Target payload bitrate while ``on``.
    payload:
        Payload bytes per datagram.
    on_time / off_time:
        Mean durations of exponential on/off periods; ``off_time=0`` gives a
        plain CBR stream.  Randomised through the simulator RNG.
    jitter_factor:
        Multiplicative jitter on inter-packet gaps (0 = perfectly paced).
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        dst: str,
        dport: int,
        rate_bps: float,
        payload: int = 1200,
        sport: Optional[int] = None,
        on_time: float = 0.0,
        off_time: float = 0.0,
        jitter_factor: float = 0.1,
        tag: str = "udp",
    ):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.sim = sim
        self.node = node
        self.dst = dst
        self.dport = dport
        self.sport = sport if sport is not None else node.ephemeral_port()
        self.rate_bps = rate_bps
        self.payload = payload
        self.on_time = on_time
        self.off_time = off_time
        self.jitter_factor = jitter_factor
        self.tag = tag
        self.pkts_sent = 0
        self.bytes_sent = 0
        self._running = False
        self._gap = payload * 8.0 / rate_bps
        #: every datagram of the flow shares one key
        self._flow_key = FlowKey(node.name, dst, self.sport, dport, UDP)

    def start(self, at: float = 0.0) -> None:
        if self._running:
            return
        self._running = True
        self.sim.post(at, self._emit)

    def stop(self) -> None:
        # _emit checks _running, so any queued emission becomes a no-op.
        self._running = False

    def set_rate(self, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.rate_bps = rate_bps
        self._gap = self.payload * 8.0 / rate_bps

    def _emit(self) -> None:
        if not self._running:
            return
        sim = self.sim
        pkt = Packet(
            self.node.name,
            self.dst,
            self.sport,
            self.dport,
            UDP,
            self.payload,
            created_at=sim.now,
            app_tag=self.tag,
            flow_key=self._flow_key,
        )
        size = pkt.size
        self.node.send(pkt)
        self.pkts_sent += 1
        self.bytes_sent += size
        gap = self._gap
        if self.jitter_factor > 0:
            # Inline of sim.bounded_normal(gap, gap * jf, lo=gap * 0.1).
            draw = sim.rng.gauss(gap, gap * self.jitter_factor)
            floor = gap * 0.1
            gap = draw if draw > floor else floor
        if self.off_time > 0 and self.on_time > 0:
            # End of an on-period with probability gap / on_time (inline of
            # sim.chance -- the >= 1 short-circuit must not consume a draw).
            p = gap / self.on_time
            if p >= 1.0 or sim.rng.random() < p:
                gap += sim.expovariate(1.0 / self.off_time)
        sim.post(gap, self._emit)


class UdpSink:
    """Terminates UDP traffic on a node and counts it."""

    def __init__(
        self,
        node: Node,
        port: int,
        on_packet: Optional[Callable[[Packet], None]] = None,
    ):
        self.node = node
        self.port = port
        self.on_packet = on_packet
        self.pkts_received = 0
        self.bytes_received = 0
        node.bind(UDP, port, self._receive)

    def _receive(self, pkt: Packet) -> None:
        self.pkts_received += 1
        self.bytes_received += pkt.size
        if self.on_packet:
            self.on_packet(pkt)

    def close(self) -> None:
        self.node.unbind(UDP, self.port)
