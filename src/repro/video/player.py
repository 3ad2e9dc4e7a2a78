"""Progressive-download video player model.

Reproduces the QoE-relevant behaviour of the default Android media player
used by the paper's instrumented application:

* playback starts once an initial buffer is filled (startup delay),
* an empty buffer stalls playback until a resume threshold is reached
  (rebuffering events),
* a starved decoder (CPU load on the device) cannot sustain real-time
  playback, producing frame skips / stutter that degrade QoE even when the
  network is healthy,
* sessions that take too long to start or stall for too long are abandoned.

The player is driven by periodic ticks (100 ms), decoupled from the
network: bytes arrive via :meth:`feed` from the TCP connection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.simnet.engine import Simulator
from repro.video.catalog import VideoProfile

FRAME_RATE = 30.0  # used to express stutter as skipped frames


@dataclass
class PlayerConfig:
    """Tunable player behaviour."""

    startup_buffer_s: float = 2.0
    resume_buffer_s: float = 1.0
    tick_s: float = 0.1
    startup_abandon_s: float = 45.0
    stall_abandon_s: float = 30.0
    #: decode speeds below this are perceived as stutter (frame skips)
    stutter_threshold: float = 0.85


@dataclass
class PlayerMetrics:
    """Application-layer QoE metrics of one playback (probe input)."""

    started: bool = False
    completed: bool = False
    abandoned: bool = False
    abandon_reason: str = ""
    startup_delay_s: float = 0.0
    stall_count: int = 0
    total_stall_s: float = 0.0
    stall_durations: List[float] = field(default_factory=list)
    stutter_events: int = 0
    stutter_s: float = 0.0
    content_played_s: float = 0.0
    watch_time_s: float = 0.0
    bytes_received: int = 0
    buffer_min_s: float = float("inf")
    buffer_sum_s: float = 0.0
    buffer_samples: int = 0

    @property
    def frames_skipped(self) -> int:
        return int(self.stutter_s * FRAME_RATE)

    @property
    def buffer_avg_s(self) -> float:
        if self.buffer_samples == 0:
            return 0.0
        return self.buffer_sum_s / self.buffer_samples

    @property
    def qoe_stall_count(self) -> int:
        """Stalls as perceived by the user: rebufferings plus stutter.

        Sustained decoder stutter is perceived as repeated interruptions,
        not one long event, so accumulated stutter time is converted into
        one perceived interruption per ~3 seconds of frozen playback.
        """
        stutter_equiv = max(
            self.stutter_events, int(math.ceil(self.stutter_s / 3.0))
        ) if self.stutter_s > 0 else 0
        return self.stall_count + stutter_equiv

    @property
    def qoe_stall_s(self) -> float:
        return self.total_stall_s + self.stutter_s


class VideoPlayer:
    """Plays one :class:`VideoProfile` from a byte stream."""

    def __init__(
        self,
        sim: Simulator,
        profile: VideoProfile,
        config: Optional[PlayerConfig] = None,
        decode_speed_fn: Optional[Callable[[], float]] = None,
        on_done: Optional[Callable[[], None]] = None,
    ):
        self.sim = sim
        self.profile = profile
        self.config = config or PlayerConfig()
        self.decode_speed_fn = decode_speed_fn or (lambda: 1.0)
        self.on_done = on_done

        self.metrics = PlayerMetrics()
        self.state = "waiting"  # waiting -> playing <-> stalled -> done
        self.buffered_bytes = 0.0
        self.download_complete = False
        self._start_time: Optional[float] = None
        self._stall_started = 0.0
        self._in_stutter = False
        self._tick_event = None

    # ------------------------------------------------------------------ API

    def start(self) -> None:
        """Begin the session clock (the moment the user pressed play)."""
        if self._start_time is not None:
            raise RuntimeError("player already started")
        self._start_time = self.sim.now
        self._tick_event = self.sim.schedule(self.config.tick_s, self._tick)

    def feed(self, nbytes: int) -> None:
        """Deliver ``nbytes`` of media payload from the network."""
        self.buffered_bytes += nbytes
        self.metrics.bytes_received += nbytes

    def notify_download_complete(self) -> None:
        self.download_complete = True

    def fail(self, reason: str) -> None:
        """The transport never delivered anything (e.g. handshake failure)."""
        if self.state == "done":
            return
        self.metrics.abandoned = True
        self.metrics.abandon_reason = reason
        self._finish()

    @property
    def buffer_s(self) -> float:
        """Seconds of content currently buffered."""
        return self.buffered_bytes / self.profile.byte_rate

    @property
    def done(self) -> bool:
        return self.state == "done"

    # ------------------------------------------------------------- internals

    def _tick(self) -> None:
        if self.state == "done":
            return
        handlers = {
            "waiting": self._tick_waiting,
            "playing": self._tick_playing,
            "stalled": self._tick_stalled,
        }
        handlers[self.state]()
        if self.state != "done":
            self._tick_event = self.sim.schedule(self.config.tick_s, self._tick)

    def _session_time(self) -> float:
        return self.sim.now - self._start_time

    def _remaining_content(self) -> float:
        return self.profile.duration_s - self.metrics.content_played_s

    def _tick_waiting(self) -> None:
        enough = self.buffer_s >= self.config.startup_buffer_s
        if enough or (self.download_complete and self.buffered_bytes > 0):
            self.metrics.started = True
            self.metrics.startup_delay_s = self._session_time()
            self.state = "playing"
            return
        if self._session_time() > self.config.startup_abandon_s:
            self.metrics.abandoned = True
            self.metrics.abandon_reason = "startup-timeout"
            self._finish()

    def _tick_playing(self) -> None:
        speed = max(0.0, min(1.0, self.decode_speed_fn()))
        self._account_stutter(speed)
        dt = self.config.tick_s
        consume = self.profile.byte_rate * dt * speed
        remaining_bytes = self._remaining_content() * self.profile.byte_rate
        consume = min(consume, remaining_bytes)
        self._sample_buffer()
        if self.buffered_bytes + 1e-9 >= consume and consume > 0:
            self.buffered_bytes -= consume
            self.metrics.content_played_s += dt * speed
            if self._remaining_content() <= dt:
                self.metrics.completed = True
                self._finish()
        elif consume <= 0:
            self.metrics.completed = True
            self._finish()
        else:
            if self.download_complete:
                # Whatever is buffered is all that will ever arrive: play it
                # out and end (accounting the tail as played content).
                self.metrics.content_played_s += (
                    self.buffered_bytes / self.profile.byte_rate
                )
                self.buffered_bytes = 0.0
                self.metrics.completed = (
                    self._remaining_content() <= self.config.tick_s * 2
                )
                self._finish()
                return
            self.state = "stalled"
            self._stall_started = self.sim.now
            self.metrics.stall_count += 1

    def _tick_stalled(self) -> None:
        stall_len = self.sim.now - self._stall_started
        if self.buffer_s >= self.config.resume_buffer_s or (
            self.download_complete and self.buffered_bytes > 0
        ):
            self.metrics.total_stall_s += stall_len
            self.metrics.stall_durations.append(stall_len)
            self.state = "playing"
            return
        if stall_len > self.config.stall_abandon_s:
            self.metrics.total_stall_s += stall_len
            self.metrics.stall_durations.append(stall_len)
            self.metrics.abandoned = True
            self.metrics.abandon_reason = "stall-timeout"
            self._finish()

    def _account_stutter(self, speed: float) -> None:
        if speed < self.config.stutter_threshold:
            if not self._in_stutter:
                self._in_stutter = True
                self.metrics.stutter_events += 1
            self.metrics.stutter_s += self.config.tick_s * (1.0 - speed)
        else:
            self._in_stutter = False

    def _sample_buffer(self) -> None:
        level = self.buffer_s
        self.metrics.buffer_min_s = min(self.metrics.buffer_min_s, level)
        self.metrics.buffer_sum_s += level
        self.metrics.buffer_samples += 1

    def _finish(self) -> None:
        self.state = "done"
        if self._start_time is not None:
            self.metrics.watch_time_s = self._session_time()
        if self.metrics.buffer_min_s == float("inf"):
            self.metrics.buffer_min_s = 0.0
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        if self.on_done:
            self.on_done()
