"""Discrete-event network simulator used as the testbed substrate.

The paper's testbed (Fig. 2) consists of a video server, a router/AP and
Android phones, with ``tc``/``netem`` emulating DSL and cellular WAN links.
This package provides the equivalent substrate in simulation:

* :mod:`repro.simnet.engine` -- the discrete-event loop and seeded RNGs.
* :mod:`repro.simnet.packet` -- packet and flow primitives.
* :mod:`repro.simnet.link` -- wired channels with rate/delay/loss/queueing
  (the netem equivalent) and runtime-adjustable shaping.
* :mod:`repro.simnet.node` -- hosts, the router (with a shared bridge), NICs
  and passive taps for probes.
* :mod:`repro.simnet.tcp` -- a Reno-style TCP implementation (handshake,
  slow start, congestion avoidance, fast retransmit/recovery, RTO).
* :mod:`repro.simnet.udp` -- iperf-style UDP traffic sources and sinks.
* :mod:`repro.simnet.wireless` -- the 802.11 medium: path loss, RSSI,
  rate adaptation, airtime sharing, interference and link-layer retries.
"""

from repro.simnet.engine import Simulator, Event, CalendarScheduler
from repro.simnet.packet import Packet, FlowKey, TCP, UDP
from repro.simnet.rng import BatchedRandom
from repro.simnet.link import Channel, NetemChannel, DuplexLink
from repro.simnet.node import Node, Host, Router, Interface, Tap
from repro.simnet.tcp import TcpEndpoint, TcpServer, open_connection
from repro.simnet.udp import UdpSender, UdpSink
from repro.simnet.wireless import WifiMedium, WifiStation, RATE_TABLE
from repro.simnet.cellular import CellularCell, CellularUe
from repro.simnet.trace import PacketTrace, TraceRecorder

__all__ = [
    "Simulator",
    "Event",
    "CalendarScheduler",
    "BatchedRandom",
    "Packet",
    "FlowKey",
    "TCP",
    "UDP",
    "Channel",
    "NetemChannel",
    "DuplexLink",
    "Node",
    "Host",
    "Router",
    "Interface",
    "Tap",
    "TcpEndpoint",
    "TcpServer",
    "open_connection",
    "UdpSender",
    "UdpSink",
    "WifiMedium",
    "WifiStation",
    "RATE_TABLE",
    "CellularCell",
    "CellularUe",
    "PacketTrace",
    "TraceRecorder",
]
