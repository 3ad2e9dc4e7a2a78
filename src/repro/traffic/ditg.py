"""D-ITG-style application traffic generators.

Each application pattern matches the classic D-ITG presets:

* **VoIP**: G.711-ish CBR, 80-byte payloads at 50 pps (64 kbit/s).
* **Gaming**: small packets at 25-35 pps with jitter, both directions.
* **Telnet**: tiny packets, low rate, exponential gaps.
* **Web**: short TCP transfers (tens to hundreds of kB) with think times.
* **FTP**: occasional bulk TCP transfers of several MB.

Flows run between the wired client and the server (crossing the WAN), and
between the phone and the server (background apps on the device), creating
the "background variations" noise the classifier must tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.simnet.engine import Simulator
from repro.simnet.node import Node
from repro.simnet.tcp import TcpServer, open_connection
from repro.simnet.udp import UdpSender, UdpSink

VOIP_PORT = 16384
GAME_PORT = 27015
TELNET_PORT = 23
WEB_PORT = 8080
FTP_PORT = 20


@dataclass
class TrafficMix:
    """Knobs for the background intensity.

    ``intensity`` scales every arrival rate; 1.0 is the controlled-testbed
    default, the in-the-wild campaigns use higher values and more variance.
    """

    intensity: float = 1.0
    voip: bool = True
    gaming: bool = True
    telnet: bool = True
    web: bool = True
    ftp: bool = True
    phone_apps: bool = True
    #: mean seconds between web fetches / ftp transfers (pre-scaling)
    web_think_s: float = 10.0
    ftp_gap_s: float = 45.0
    ftp_size_bytes: tuple = (512 * 1024, 4 * 1024 * 1024)
    web_size_bytes: tuple = (20 * 1024, 400 * 1024)


class BackgroundTraffic:
    """Owns all background flows of one testbed instance."""

    def __init__(
        self,
        sim: Simulator,
        server: Node,
        wired_client: Node,
        phone: Node,
        mix: Optional[TrafficMix] = None,
        seed_label: str = "bg",
    ):
        self.sim = sim
        self.server = server
        self.wired_client = wired_client
        self.phone = phone
        self.mix = mix or TrafficMix()
        self.rng = sim.fork_rng(seed_label)
        self._udp_senders: List[UdpSender] = []
        self._sinks: List[UdpSink] = []
        self._tcp_servers: List[TcpServer] = []
        self._tcp_clients: list = []
        self._running = False
        self.tcp_transfers_started = 0

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        mix = self.mix
        if mix.voip:
            self._start_voip()
        if mix.gaming:
            self._start_gaming()
        if mix.telnet:
            self._start_telnet()
        if mix.web or mix.ftp:
            self._start_tcp_listener()
        if mix.web:
            self._schedule_web()
        if mix.ftp:
            self._schedule_ftp()
        if mix.phone_apps:
            self._start_phone_apps()

    def stop(self) -> None:
        self._running = False
        for sender in self._udp_senders:
            sender.stop()
        for sink in self._sinks:
            sink.close()
        for srv in self._tcp_servers:
            for ep in srv.connections:
                if not ep.closed:
                    ep.abort()
            srv.close()
        for client in self._tcp_clients:
            if not client.closed:
                client.abort()

    # ------------------------------------------------------------ UDP flows

    def _cbr(self, src: Node, dst: Node, port: int, rate: float, payload: int,
             jitter: float, tag: str, on_time: float = 0.0, off_time: float = 0.0):
        self._sinks.append(UdpSink(dst, port))
        sender = UdpSender(
            self.sim, src, dst.name, port,
            rate_bps=rate * self.mix.intensity,
            payload=payload,
            jitter_factor=jitter,
            on_time=on_time,
            off_time=off_time,
            tag=tag,
        )
        sender.start(at=self.rng.uniform(0.0, 1.0))
        self._udp_senders.append(sender)

    def _start_voip(self) -> None:
        # One bidirectional G.711 call between wired client and server.
        self._cbr(self.wired_client, self.server, VOIP_PORT, 64e3, 80, 0.05, "voip")
        self._cbr(self.server, self.wired_client, VOIP_PORT + 1, 64e3, 80, 0.05, "voip")

    def _start_gaming(self) -> None:
        rate = 30 * 60 * 8  # ~30pps x 60B
        self._cbr(self.wired_client, self.server, GAME_PORT, rate, 60, 0.3, "game",
                  on_time=20.0, off_time=8.0)
        self._cbr(self.server, self.wired_client, GAME_PORT + 1, rate * 2, 120, 0.3,
                  "game", on_time=20.0, off_time=8.0)

    def _start_telnet(self) -> None:
        rate = 5 * 64 * 8  # ~5pps x 64B
        self._cbr(self.wired_client, self.server, TELNET_PORT, rate, 64, 0.8,
                  "telnet", on_time=10.0, off_time=15.0)

    def _start_phone_apps(self) -> None:
        # Background app sync on the phone: sparse small UDP exchanges.
        self._cbr(self.phone, self.server, GAME_PORT + 2, 24e3, 200, 0.5,
                  "phone-sync", on_time=5.0, off_time=30.0)
        self._cbr(self.server, self.phone, GAME_PORT + 3, 48e3, 400, 0.5,
                  "phone-push", on_time=5.0, off_time=40.0)

    # ------------------------------------------------------------ TCP flows

    def _start_tcp_listener(self) -> None:
        def on_connection(endpoint):
            def on_request(nbytes: int, now: float) -> None:
                size = endpoint._bg_response_size
                if size > 0:
                    endpoint.send(size)
                    endpoint._bg_response_size = 0
                    endpoint.close()
            endpoint._bg_response_size = getattr(
                on_connection, "_next_size", 64 * 1024
            )
            endpoint.on_data = on_request

        self._web_listener = TcpServer(self.sim, self.server, WEB_PORT, on_connection)
        self._on_connection = on_connection
        self._tcp_servers.append(self._web_listener)

    def _fetch(self, size: int) -> None:
        """One client-initiated TCP transfer of ``size`` response bytes."""
        if not self._running:
            return
        self.tcp_transfers_started += 1
        self._on_connection._next_size = size
        client = open_connection(self.sim, self.wired_client, self.server.name, WEB_PORT)
        client.on_established = lambda: client.send(300)
        client.on_fail = lambda reason: None
        client.connect()
        self._tcp_clients.append(client)

    def _schedule_web(self) -> None:
        if not self._running:
            return
        lo, hi = self.mix.web_size_bytes
        self._fetch(self.rng.randint(lo, hi))
        gap = self.rng.expovariate(self.mix.intensity / self.mix.web_think_s)
        self.sim.schedule(max(0.5, gap), self._schedule_web)

    def _schedule_ftp(self) -> None:
        if not self._running:
            return
        lo, hi = self.mix.ftp_size_bytes
        self._fetch(self.rng.randint(lo, hi))
        gap = self.rng.expovariate(self.mix.intensity / self.mix.ftp_gap_s)
        self.sim.schedule(max(2.0, gap), self._schedule_ftp)
