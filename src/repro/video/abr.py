"""Adaptive bitrate (DASH-style) streaming.

The paper requires the diagnosis system to be "agnostic to the details of
both the video itself but also how it is delivered ... static or adaptive
streaming, pacing and so on" (Section 2).  This module provides the
*adaptive* delivery mechanism: the client fetches fixed-duration segments
over one persistent TCP connection and a rate controller picks the next
segment's bitrate from a ladder using a hybrid throughput/buffer rule
(EWMA throughput estimate with a safety factor, plus buffer guard bands --
the classic pre-BOLA heuristic used by 2015 players).

QoE accounting reuses :class:`repro.video.player.VideoPlayer`: received
segment bytes are converted to *content seconds* at the segment's bitrate,
so startup delay, stalls and the MOS labelling are identical to the
progressive path.  Quality switches and the delivered average bitrate are
reported as additional application metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.simnet.engine import Simulator
from repro.simnet.node import Node
from repro.simnet.packet import FlowKey, TCP
from repro.simnet.tcp import TcpEndpoint, TcpServer, open_connection
from repro.video.catalog import VideoProfile
from repro.video.mos import MosModel, MosResult, mos_to_severity
from repro.video.player import PlayerConfig, VideoPlayer

#: 2015-era DASH ladder (bit/s).
DEFAULT_LADDER = (0.4e6, 0.75e6, 1.1e6, 1.8e6, 2.3e6)
SEGMENT_DURATION_S = 4.0
REQUEST_BYTES = 180
THROUGHPUT_SAFETY = 0.8
EWMA_ALPHA = 0.4
BUFFER_LOW_S = 6.0
BUFFER_HIGH_S = 14.0


class AbrController:
    """Hybrid throughput/buffer bitrate selection."""

    def __init__(self, ladder=DEFAULT_LADDER):
        if not ladder:
            raise ValueError("ladder must not be empty")
        self.ladder = tuple(sorted(ladder))
        self.throughput_ewma: Optional[float] = None
        self.level = 0  # start conservative, as real players do

    def observe_segment(self, bits: float, seconds: float) -> None:
        """Update the throughput estimate with one download."""
        if seconds <= 0:
            return
        sample = bits / seconds
        if self.throughput_ewma is None:
            self.throughput_ewma = sample
        else:
            self.throughput_ewma = (
                EWMA_ALPHA * sample + (1 - EWMA_ALPHA) * self.throughput_ewma
            )

    def next_level(self, buffer_s: float) -> int:
        """Pick the ladder index for the next segment."""
        if self.throughput_ewma is None:
            return self.level
        budget = THROUGHPUT_SAFETY * self.throughput_ewma
        candidate = 0
        for i, rate in enumerate(self.ladder):
            if rate <= budget:
                candidate = i
        if buffer_s < BUFFER_LOW_S:
            candidate = min(candidate, max(0, self.level - 1), self.level)
        elif buffer_s > BUFFER_HIGH_S:
            candidate = max(candidate, self.level)  # never step down when full
        # Move at most one rung at a time (smoothness).
        if candidate > self.level:
            self.level += 1
        elif candidate < self.level:
            self.level = candidate
        return self.level

    @property
    def bitrate(self) -> float:
        return self.ladder[self.level]


class AbrVideoServer:
    """Segment server: answers sized requests on persistent connections.

    The size of each response is supplied by a per-client callback
    registered by the session (the simulator's stand-in for the MPD +
    segment URLs of a real DASH deployment).
    """

    def __init__(self, sim: Simulator, node: Node, port: int = 8081):
        self.sim = sim
        self.node = node
        self.port = port
        self.segments_served = 0
        self._request_handlers: Dict[str, Callable[[], int]] = {}
        self._listener = TcpServer(sim, node, port, self._on_connection)

    def register_client(self, client: str, next_size: Callable[[], int]) -> None:
        self._request_handlers[client] = next_size

    def unregister_client(self, client: str) -> None:
        self._request_handlers.pop(client, None)

    def _on_connection(self, endpoint: TcpEndpoint) -> None:
        def on_request(nbytes: int, now: float) -> None:
            handler = self._request_handlers.get(endpoint.peer)
            if handler is None:
                return
            size = handler()
            if size > 0:
                self.segments_served += 1
                endpoint.send(size, tag="video-segment")

        endpoint.on_data = on_request

    def close(self) -> None:
        self._listener.close()


@dataclass
class AbrMetrics:
    """ABR-specific additions to the player metrics."""

    segments: int = 0
    switches: int = 0
    level_history: List[int] = field(default_factory=list)
    bits_received: float = 0.0
    content_seconds: float = 0.0

    @property
    def average_bitrate(self) -> float:
        if self.content_seconds == 0:
            return 0.0
        return self.bits_received / self.content_seconds


class AbrVideoSession:
    """One adaptive streaming session (client side)."""

    def __init__(
        self,
        sim: Simulator,
        client: Node,
        server: AbrVideoServer,
        profile: VideoProfile,
        ladder=DEFAULT_LADDER,
        player_config: Optional[PlayerConfig] = None,
        decode_speed_fn: Optional[Callable[[], float]] = None,
        on_complete: Optional[Callable[["AbrVideoSession"], None]] = None,
    ):
        self.sim = sim
        self.client = client
        self.server = server
        self.profile = profile
        self.controller = AbrController(ladder)
        self.abr = AbrMetrics()
        self.on_complete = on_complete

        self.player = VideoPlayer(
            sim, profile, config=player_config, decode_speed_fn=decode_speed_fn,
            on_done=self._on_player_done,
        )
        self.endpoint: Optional[TcpEndpoint] = None
        self.flow_key: Optional[FlowKey] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.finished = False

        self._segments_total = max(
            1, int(round(profile.duration_s / SEGMENT_DURATION_S))
        )
        self._segment_index = 0
        self._segment_bytes_left = 0
        self._segment_started_at = 0.0
        self._current_segment_size = 0

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        if self.start_time is not None:
            raise RuntimeError("session already started")
        self.start_time = self.sim.now
        self.server.register_client(self.client.name, self._next_segment_size)
        self.endpoint = open_connection(
            self.sim, self.client, self.server.node.name, self.server.port
        )
        self.flow_key = FlowKey(
            self.client.name, self.server.node.name,
            self.endpoint.local_port, self.server.port, TCP,
        )
        self.endpoint.on_established = self._request_next
        self.endpoint.on_data = self._on_data
        self.endpoint.on_fail = lambda reason: self.player.fail(reason)
        self.player.start()
        self.endpoint.connect()

    def mos(self, model: Optional[MosModel] = None) -> MosResult:
        model = model or MosModel()
        m = self.player.metrics
        duration = (self.end_time or self.sim.now) - (self.start_time or 0.0)
        return model.score(
            startup_delay_s=m.startup_delay_s,
            stall_count=m.qoe_stall_count,
            total_stall_s=m.qoe_stall_s,
            session_duration_s=duration,
            started=m.started,
        )

    def severity(self) -> str:
        return mos_to_severity(self.mos().mos)

    # ------------------------------------------------------------- internals

    def _next_segment_size(self) -> int:
        level = self.controller.next_level(self.player.buffer_s)
        if self.abr.level_history and level != self.abr.level_history[-1]:
            self.abr.switches += 1
        self.abr.level_history.append(level)
        bitrate = self.controller.ladder[level]
        size = int(bitrate * SEGMENT_DURATION_S / 8.0)
        self._current_segment_size = size
        self._segment_bytes_left = size
        self._segment_started_at = self.sim.now
        return size

    def _request_next(self) -> None:
        if self.finished or self.endpoint.closed:
            return
        if self._segment_index >= self._segments_total:
            self.player.notify_download_complete()
            return
        self._segment_index += 1
        self.endpoint.send(REQUEST_BYTES, tag="segment-request")

    def _on_data(self, nbytes: int, now: float) -> None:
        if self._current_segment_size == 0:
            return
        self._segment_bytes_left -= nbytes
        # Convert received media bytes into content-seconds at the
        # segment's bitrate, then into the player's nominal byte scale.
        bitrate = self.controller.bitrate
        seconds = nbytes * 8.0 / bitrate
        self.player.feed(seconds * self.profile.byte_rate)
        self.abr.bits_received += nbytes * 8.0
        self.abr.content_seconds += seconds
        if self._segment_bytes_left <= 0:
            elapsed = now - self._segment_started_at
            self.controller.observe_segment(
                self._current_segment_size * 8.0, elapsed
            )
            self.abr.segments += 1
            self._request_next()

    def _on_player_done(self) -> None:
        if self.finished:
            return
        self.finished = True
        self.end_time = self.sim.now
        self.server.unregister_client(self.client.name)
        if self.endpoint is not None and not self.endpoint.closed:
            self.endpoint.abort()
        if self.on_complete:
            self.on_complete(self)
