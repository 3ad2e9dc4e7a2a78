"""One end-to-end video session: request, stream, play, measure.

A :class:`VideoSession` owns the client TCP connection and the player, and
records everything the application-layer probe reports: startup delay,
stalls, frame skips, buffer state, bytes, flow identity and timing.  The
app-layer metrics feed the MOS labeller -- per the paper they are *never*
used as classifier features.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.simnet.engine import Simulator
from repro.simnet.node import Node
from repro.simnet.packet import FlowKey, TCP
from repro.simnet.tcp import open_connection
from repro.video.catalog import VideoProfile
from repro.video.mos import MosModel, MosResult, mos_to_severity
from repro.video.player import PlayerConfig, VideoPlayer
from repro.video.server import VideoServer

REQUEST_BYTES = 420  # HTTP GET with headers
RWND_UPDATE_INTERVAL_S = 0.5


class VideoSession:
    """Drives one video playback from a phone against a video server."""

    def __init__(
        self,
        sim: Simulator,
        client: Node,
        server: VideoServer,
        profile: VideoProfile,
        player_config: Optional[PlayerConfig] = None,
        decode_speed_fn: Optional[Callable[[], float]] = None,
        recv_capacity_fn: Optional[Callable[[], int]] = None,
        on_complete: Optional[Callable[["VideoSession"], None]] = None,
        hard_timeout_s: Optional[float] = None,
        pre_connect_delay_s: float = 0.0,
    ):
        self.sim = sim
        self.client = client
        self.server = server
        self.profile = profile
        self.player_config = player_config or PlayerConfig()
        self.decode_speed_fn = decode_speed_fn
        self.recv_capacity_fn = recv_capacity_fn
        self.on_complete = on_complete
        self.hard_timeout_s = hard_timeout_s or (profile.duration_s * 3 + 90.0)
        #: delay between "play" and the TCP connect -- a failing resolver
        #: (DNS misconfiguration) stalls here while the session clock runs.
        self.pre_connect_delay_s = max(0.0, pre_connect_delay_s)

        self.player: Optional[VideoPlayer] = None
        self.endpoint = None
        self.flow_key: Optional[FlowKey] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.failed = False
        self.failure_reason = ""
        self.finished = False
        self._timeout_event = None
        self._rwnd_event = None

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        """Register the request and open the connection."""
        if self.start_time is not None:
            raise RuntimeError("session already started")
        self.start_time = self.sim.now
        self.server.register_request(self.client.name, self.profile)
        self.player = VideoPlayer(
            self.sim,
            self.profile,
            config=self.player_config,
            decode_speed_fn=self.decode_speed_fn,
            on_done=self._on_player_done,
        )
        capacity = 262144
        if self.recv_capacity_fn is not None:
            capacity = self.recv_capacity_fn()
        self.endpoint = open_connection(
            self.sim,
            self.client,
            self.server.node.name,
            self.server.port,
            recv_capacity=capacity,
        )
        self.flow_key = FlowKey(
            self.client.name,
            self.server.node.name,
            self.endpoint.local_port,
            self.server.port,
            TCP,
        )
        self.endpoint.on_established = self._on_established
        self.endpoint.on_data = self._on_data
        self.endpoint.on_close = self._on_transport_close
        self.endpoint.on_fail = self._on_transport_fail
        self.player.start()
        if self.pre_connect_delay_s > 0:
            self.sim.schedule(self.pre_connect_delay_s, self.endpoint.connect)
        else:
            self.endpoint.connect()
        self._timeout_event = self.sim.schedule(self.hard_timeout_s, self._on_timeout)
        if self.recv_capacity_fn is not None:
            self._rwnd_event = self.sim.schedule(
                RWND_UPDATE_INTERVAL_S, self._update_rwnd
            )

    @property
    def duration(self) -> float:
        """Wall-clock session length (play press to finish)."""
        if self.start_time is None:
            return 0.0
        end = self.end_time if self.end_time is not None else self.sim.now
        return end - self.start_time

    def mos(self, model: Optional[MosModel] = None) -> MosResult:
        """Score the session with the Mok et al. model."""
        model = model or MosModel()
        metrics = self.player.metrics
        result = model.score(
            startup_delay_s=metrics.startup_delay_s,
            stall_count=metrics.qoe_stall_count,
            total_stall_s=metrics.qoe_stall_s,
            session_duration_s=self.duration,
            started=metrics.started,
        )
        if metrics.abandoned and metrics.started:
            # The user gave up mid-session: unacceptable QoE regardless of
            # what the frequency-based regression says.
            capped = min(result.mos, 1.8)
            result = MosResult(capped, result.level_ti, result.level_fr, result.level_td)
        return result

    def severity(self, model: Optional[MosModel] = None) -> str:
        return mos_to_severity(self.mos(model).mos)

    # ------------------------------------------------------------- internals

    def _on_established(self) -> None:
        self.endpoint.send(REQUEST_BYTES, tag="video-request")

    def _on_data(self, nbytes: int, now: float) -> None:
        self.player.feed(nbytes)

    def _on_transport_close(self) -> None:
        self.player.notify_download_complete()

    def _on_transport_fail(self, reason: str) -> None:
        self.failed = True
        self.failure_reason = reason
        self.player.fail(reason)

    def _on_timeout(self) -> None:
        self._timeout_event = None
        if not self.finished:
            self.player.fail("session-timeout")

    def _update_rwnd(self) -> None:
        if self.finished or self.endpoint.closed:
            return
        self.endpoint.set_recv_capacity(self.recv_capacity_fn())
        self._rwnd_event = self.sim.schedule(
            RWND_UPDATE_INTERVAL_S, self._update_rwnd
        )

    def _on_player_done(self) -> None:
        if self.finished:
            return
        self.finished = True
        self.end_time = self.sim.now
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        if self._rwnd_event is not None:
            self._rwnd_event.cancel()
            self._rwnd_event = None
        if self.endpoint is not None and not self.endpoint.closed:
            self.endpoint.abort()
        if self.on_complete:
            self.on_complete(self)
