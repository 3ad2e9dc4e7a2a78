"""Nodes, network interfaces and passive taps.

Hosts terminate traffic; the :class:`Router` forwards it through a shared
internal *bridge* channel, which models the finite switching capacity of the
paper's Netgear WNDR3800.  LAN congestion traffic therefore contends with
the video stream inside the router even when it enters on a different port,
matching the ``iperf -> router`` fault of Table 2.

Probes never reach into protocol state: they attach :class:`Tap` objects to
interfaces and observe packets exactly as ``tstat`` observes a mirrored
port.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.simnet.engine import Simulator
from repro.simnet.link import Channel
from repro.simnet.packet import Packet

PacketHandler = Callable[[Packet], None]
TapFn = Callable[[Packet, str, float], None]


class Tap:
    """Passive observer of packets crossing an interface.

    ``fn(packet, direction, time)`` is invoked with direction ``"tx"`` or
    ``"rx"`` relative to the tapped interface.
    """

    def __init__(self, fn: TapFn, name: str = ""):
        self.fn = fn
        self.name = name

    def __call__(self, pkt: Packet, direction: str, now: float) -> None:
        self.fn(pkt, direction, now)


class Interface:
    """A NIC: one attachment point of a node to a channel or medium."""

    def __init__(self, name: str, node: "Node"):
        self.name = name
        self.node = node
        self.sender = None  # object with .send(pkt) -> bool
        self.taps: list[Tap] = []
        # Flat observer functions mirroring ``taps`` -- the per-packet loop
        # calls the underlying fn directly, skipping Tap.__call__.
        self._tap_fns: list[TapFn] = []
        # Cumulative counters sampled by the link-layer probe.
        self.tx_pkts = 0
        self.tx_bytes = 0
        self.rx_pkts = 0
        self.rx_bytes = 0
        self.tx_drops = 0

    def attach_sender(self, sender) -> None:
        """Attach the outbound path (a Channel or a wireless port)."""
        self.sender = sender

    def add_tap(self, tap: Tap) -> None:
        self.taps.append(tap)
        self._tap_fns.append(tap.fn)

    def remove_tap(self, tap: Tap) -> None:
        """Detach a tap; both the handle and its flat fn mirror."""
        if tap in self.taps:
            self.taps.remove(tap)
            self._tap_fns.remove(tap.fn)

    def transmit(self, pkt: Packet) -> bool:
        """Send a packet out of this interface."""
        if self.sender is None:
            raise RuntimeError(f"interface {self.node.name}.{self.name} has no sender")
        taps = self._tap_fns
        if taps:
            now = self.node.sim.now
            for fn in taps:
                fn(pkt, "tx", now)
        self.tx_pkts += 1
        self.tx_bytes += pkt.size
        accepted = self.sender.send(pkt)
        if not accepted:
            self.tx_drops += 1
        return accepted

    def deliver(self, pkt: Packet) -> None:
        """Entry point for packets arriving from the attached channel."""
        taps = self._tap_fns
        if taps:
            now = self.node.sim.now
            for fn in taps:
                fn(pkt, "rx", now)
        self.rx_pkts += 1
        self.rx_bytes += pkt.size
        self.node.receive(pkt, self)


SocketKey = Tuple[int, int, Optional[str], Optional[int]]


class Node:
    """A network element addressed by its unique ``name``."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.interfaces: Dict[str, Interface] = {}
        self.routes: Dict[str, Interface] = {}
        self.default_route: Optional[Interface] = None
        self._sockets: Dict[SocketKey, PacketHandler] = {}
        self.pkts_forwarded = 0
        self.pkts_no_route = 0

    # -- wiring --------------------------------------------------------------

    def add_interface(self, name: str) -> Interface:
        if name in self.interfaces:
            raise ValueError(f"duplicate interface {name!r} on {self.name}")
        iface = Interface(name, self)
        self.interfaces[name] = iface
        return iface

    def add_route(self, dst: str, iface: Interface) -> None:
        self.routes[dst] = iface

    def set_default_route(self, iface: Interface) -> None:
        self.default_route = iface

    def route_for(self, dst: str) -> Optional[Interface]:
        return self.routes.get(dst, self.default_route)

    # -- sockets ---------------------------------------------------------------

    def bind(
        self,
        proto: int,
        port: int,
        handler: PacketHandler,
        peer: Optional[str] = None,
        peer_port: Optional[int] = None,
    ) -> None:
        """Register a handler for inbound segments.

        A fully-qualified binding ``(proto, port, peer, peer_port)`` wins
        over the wildcard listener ``(proto, port, None, None)``.
        """
        key = (proto, port, peer, peer_port)
        if key in self._sockets:
            raise ValueError(f"port already bound: {key} on {self.name}")
        self._sockets[key] = handler

    def unbind(
        self,
        proto: int,
        port: int,
        peer: Optional[str] = None,
        peer_port: Optional[int] = None,
    ) -> None:
        self._sockets.pop((proto, port, peer, peer_port), None)

    def ephemeral_port(self) -> int:
        """Pick an unused port in the ephemeral range."""
        for _ in range(10000):
            port = self.sim.rng.randint(32768, 60999)
            if not any(k[1] == port for k in self._sockets):
                return port
        raise RuntimeError("ephemeral port space exhausted")

    # -- data path ----------------------------------------------------------

    def receive(self, pkt: Packet, iface: Interface) -> None:
        if pkt.dst == self.name:
            self._local_deliver(pkt)
        else:
            self.forward(pkt, iface)

    def _local_deliver(self, pkt: Packet) -> None:
        sockets = self._sockets
        handler = sockets.get((pkt.proto, pkt.dport, pkt.src, pkt.sport))
        if handler is None:
            handler = sockets.get((pkt.proto, pkt.dport, None, None))
        # Unmatched packets are silently discarded, as a host with no
        # listener would (we do not model RST generation for probes).
        if handler is not None:
            handler(pkt)

    def forward(self, pkt: Packet, in_iface: Interface) -> None:
        pkt.ttl -= 1
        if pkt.ttl <= 0:
            return
        out = self.routes.get(pkt.dst, self.default_route)
        if out is None or out is in_iface:
            self.pkts_no_route += 1
            return
        self.pkts_forwarded += 1
        out.transmit(pkt)

    # -- convenience -----------------------------------------------------------

    def send(self, pkt: Packet) -> bool:
        """Transmit a locally-generated packet via the routing table."""
        out = self.routes.get(pkt.dst, self.default_route)
        if out is None:
            self.pkts_no_route += 1
            return False
        return out.transmit(pkt)


class Host(Node):
    """An end system (server, phone, wired client)."""


class Router(Node):
    """Forwarding node with a finite internal bridge.

    All transit packets are serialised through ``bridge`` (a high-rate
    channel looping back into the egress lookup) before leaving, so heavy
    LAN traffic inflates queueing delay and drops for the video flow --
    the observable signature of the paper's *LAN congestion* fault.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bridge_rate_bps: float = 200e6,
        bridge_queue_bytes: int = 512 * 1024,
    ):
        super().__init__(sim, name)
        self.bridge = Channel(
            sim,
            f"{name}.bridge",
            rate_bps=bridge_rate_bps,
            delay=0.0,
            jitter=0.0,
            loss=0.0,
            queue_limit_bytes=bridge_queue_bytes,
        )
        self.bridge.connect(self._bridge_out)
        #: optional packet transform applied to transit traffic -- models
        #: a middlebox (MSS clamping, option stripping) on the path.
        self.middlebox = None

    def receive(self, pkt: Packet, iface: Interface) -> None:
        # Every packet crosses the switching fabric, locally-terminated
        # traffic included (an iperf blast *to* the router loads its data
        # path, per the LAN-congestion fault of Table 2); only transit
        # traffic spends a TTL.
        if pkt.dst != self.name:
            pkt.ttl -= 1
            if pkt.ttl <= 0:
                return
        self.bridge.send(pkt)

    def forward(self, pkt: Packet, in_iface: Interface) -> None:
        # The transit half of receive(): spend a TTL, cross the fabric.
        pkt.ttl -= 1
        if pkt.ttl > 0:
            self.bridge.send(pkt)

    def set_middlebox(self, transform) -> None:
        """Install (or clear, with ``None``) a transit-packet transform."""
        self.middlebox = transform

    def _bridge_out(self, pkt: Packet) -> None:
        if pkt.dst == self.name:
            self._local_deliver(pkt)
            return
        if self.middlebox is not None:
            pkt = self.middlebox(pkt) or pkt
        out = self.routes.get(pkt.dst, self.default_route)
        if out is None:
            self.pkts_no_route += 1
            return
        self.pkts_forwarded += 1
        out.transmit(pkt)


def wire(
    sim: Simulator,
    a: Node,
    a_iface: str,
    b: Node,
    b_iface: str,
    forward: Channel,
    backward: Channel,
) -> None:
    """Connect two nodes with a pair of directed channels."""
    ia = a.interfaces.get(a_iface) or a.add_interface(a_iface)
    ib = b.interfaces.get(b_iface) or b.add_interface(b_iface)
    ia.attach_sender(forward)
    forward.connect(ib.deliver)
    ib.attach_sender(backward)
    backward.connect(ia.deliver)
