"""Video servers: Apache-style and YouTube-style delivery.

The paper streams from (i) a private Apache server and (ii) YouTube.  The
two differ in ways the transport probes can see:

* **apache** mode writes the whole file into the connection as fast as TCP
  allows (classic progressive download).
* **youtube** mode sends an initial burst (enough for startup) and then
  paces chunks at a multiple of the media bitrate, which was YouTube's
  documented 2015 behaviour.

Server load (driven by the ApacheBench background generator or set
directly) delays the first byte and throttles chunk writes, modelling a
busy content server.  The server-side hardware probe reads
:meth:`cpu_utilization` / :meth:`free_memory`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.simnet.engine import Simulator
from repro.simnet.node import Node
from repro.simnet.tcp import TcpEndpoint, TcpServer
from repro.video.catalog import VideoProfile

CHUNK_BYTES = 64 * 1024
PACE_INTERVAL_S = 0.5


class VideoServer:
    """Serves registered video requests over the simulated TCP."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        port: int = 80,
        mode: str = "apache",
        pacing_factor: float = 1.25,
        initial_burst_s: float = 10.0,
        base_think_s: float = 0.03,
    ):
        if mode not in ("apache", "youtube"):
            raise ValueError(f"unknown server mode {mode!r}")
        self.sim = sim
        self.node = node
        self.port = port
        self.mode = mode
        self.pacing_factor = pacing_factor
        self.initial_burst_s = initial_burst_s
        self.base_think_s = base_think_s
        #: external load in [0, 1) from ApacheBench-style background work.
        self.load = 0.0
        self.active_connections = 0
        self.sessions_served = 0
        self._pending: Dict[str, VideoProfile] = {}
        self._listener = TcpServer(sim, node, port, self._on_connection)

    # -- request registration ----------------------------------------------

    def register_request(self, client: str, profile: VideoProfile) -> None:
        """Announce that ``client``'s next connection requests ``profile``."""
        self._pending[client] = profile

    def set_load(self, load: float) -> None:
        self.load = min(0.98, max(0.0, load))

    # -- hardware view (read by the server hardware probe) -------------------

    def cpu_utilization(self, noise: Callable[[], float] = lambda: 0.0) -> float:
        base = 0.05 + 0.85 * self.load + 0.03 * self.active_connections
        return min(1.0, max(0.0, base + noise()))

    def free_memory(self, noise: Callable[[], float] = lambda: 0.0) -> float:
        base = 0.7 - 0.35 * self.load - 0.01 * self.active_connections
        return min(1.0, max(0.02, base + noise()))

    # -- connection handling ----------------------------------------------

    def _on_connection(self, endpoint: TcpEndpoint) -> None:
        state = {"responded": False}

        def on_request(nbytes: int, now: float) -> None:
            if state["responded"]:
                return
            state["responded"] = True
            profile = self._pending.pop(endpoint.peer, None)
            if profile is None:
                endpoint.close()  # no content registered: empty response
                return
            think = self.base_think_s / max(0.05, 1.0 - 0.9 * self.load)
            think = self.sim.bounded_normal(think, think * 0.2, lo=0.001)
            self.active_connections += 1
            self.sessions_served += 1
            self.sim.schedule(think, self._begin_response, endpoint, profile)

        endpoint.on_data = on_request

    def _begin_response(self, endpoint: TcpEndpoint, profile: VideoProfile) -> None:
        if endpoint.closed:
            self.active_connections -= 1
            return
        total = profile.size_bytes
        if self.mode == "apache":
            self._send_chunked(endpoint, remaining=total)
        else:
            burst = min(total, int(self.initial_burst_s * profile.byte_rate))
            endpoint.send(burst, tag="video")
            remaining = total - burst
            if remaining <= 0:
                self._finish(endpoint)
            else:
                pace_bytes = int(
                    self.pacing_factor * profile.byte_rate * PACE_INTERVAL_S
                )
                self.sim.schedule(
                    PACE_INTERVAL_S, self._pace, endpoint, remaining, pace_bytes
                )

    def _send_chunked(self, endpoint: TcpEndpoint, remaining: int) -> None:
        """Apache mode: back-to-back chunks, slowed when the CPU is busy."""
        if endpoint.closed:
            self.active_connections -= 1
            return
        chunk = min(CHUNK_BYTES, remaining)
        endpoint.send(chunk, tag="video")
        remaining -= chunk
        if remaining <= 0:
            self._finish(endpoint)
            return
        # A loaded server cannot refill the socket instantly.
        delay = 0.0005 + 0.02 * (self.load ** 2) / max(0.02, 1.0 - self.load)
        self.sim.schedule(delay, self._send_chunked, endpoint, remaining)

    def _pace(self, endpoint: TcpEndpoint, remaining: int, pace_bytes: int) -> None:
        """YouTube mode: periodic writes at pacing_factor x bitrate."""
        if endpoint.closed:
            self.active_connections -= 1
            return
        chunk = min(pace_bytes, remaining)
        # Server load stretches the pacing writes.
        effective = int(chunk * max(0.3, 1.0 - 0.5 * self.load))
        endpoint.send(max(1, effective), tag="video")
        remaining -= effective
        if remaining <= 0:
            self._finish(endpoint)
        else:
            self.sim.schedule(PACE_INTERVAL_S, self._pace, endpoint, remaining, pace_bytes)

    def _finish(self, endpoint: TcpEndpoint) -> None:
        endpoint.close()
        self.active_connections = max(0, self.active_connections - 1)

    def close(self) -> None:
        self._listener.close()
