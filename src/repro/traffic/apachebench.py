"""ApacheBench-style server load.

The paper uses ApacheBench "to create a realistic load on the server".  We
model the resulting CPU pressure directly: an Ornstein-Uhlenbeck process
around a base level modulates :attr:`VideoServer.load`, which in turn slows
first-byte latency and chunk writes (see :mod:`repro.video.server`) and is
what the server-side hardware probe observes.
"""

from __future__ import annotations

import math

from repro.simnet.engine import Simulator
from repro.video.server import VideoServer

UPDATE_INTERVAL_S = 1.0


class ApacheBenchLoad:
    """Mean-reverting background load on the video server."""

    def __init__(
        self,
        sim: Simulator,
        server: VideoServer,
        base_load: float = 0.2,
        volatility: float = 0.08,
        reversion: float = 0.3,
    ):
        self.sim = sim
        self.server = server
        self.base_load = min(0.95, max(0.0, base_load))
        self.volatility = volatility
        self.reversion = reversion
        self._level = self.base_load
        self._event = None
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._step()

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def set_base_load(self, base_load: float) -> None:
        self.base_load = min(0.95, max(0.0, base_load))

    def _step(self) -> None:
        if not self._running:
            return
        dt = UPDATE_INTERVAL_S
        decay = math.exp(-self.reversion * dt)
        noise_std = self.volatility * math.sqrt(max(0.0, 1.0 - decay * decay))
        self._level = (
            self.base_load
            + (self._level - self.base_load) * decay
            + self.sim.normal(0.0, noise_std)
        )
        self._level = min(0.98, max(0.0, self._level))
        self.server.set_load(self._level)
        self._event = self.sim.schedule(dt, self._step)
