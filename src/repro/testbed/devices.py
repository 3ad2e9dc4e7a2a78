"""Hardware models for the three instrumented devices.

These provide the OS/hardware-layer signals the probes sample (CPU
utilisation, free memory) and the couplings that make faults *cause* QoE
problems on the right code path:

* the phone's decoder speed collapses under CPU stress (``stress`` fault),
  producing stutter/stalls in the player;
* memory pressure shrinks the TCP receive window, throttling the stream;
* the router's CPU tracks its bridge (forwarding) utilisation;
* the server's CPU/memory track the ApacheBench load and active streams.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.simnet.engine import Simulator
from repro.simnet.node import Host, Router
from repro.simnet.wireless import WifiStation
from repro.video.catalog import VideoProfile
from repro.video.server import VideoServer

RWND_FULL = 262144
RWND_MIN = 12 * 1024
OS_MEMORY = 0.35
PLAYER_MEMORY = 0.08
NET_CPU_COST = 0.04


class MobileDevice:
    """CPU/memory/decoder model of an Android phone."""

    def __init__(self, sim: Simulator, node: Host, rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        self.node = node
        self.rng = rng or sim.fork_rng(f"device/{node.name}")
        self.station: Optional[WifiStation] = None
        # Ambient state, re-drawn per session (other apps running).
        self.base_cpu = 0.15
        self.base_mem = 0.15
        # Fault-injected stress (the `stress` tool).
        self.stress_cpu = 0.0
        self.stress_mem = 0.0
        # Current playback demand.
        self._decode_requirement = 0.0
        self._streaming = False

    def new_session(self, profile: VideoProfile) -> None:
        """Redraw ambient load and register the decode demand."""
        self.base_cpu = self.rng.uniform(0.05, 0.28)
        self.base_mem = self.rng.uniform(0.08, 0.22)
        mbps = profile.bitrate_bps / 1e6
        self._decode_requirement = 0.12 + 0.11 * mbps
        self._streaming = True

    def end_session(self) -> None:
        self._streaming = False

    # -- couplings ----------------------------------------------------------

    @property
    def decode_requirement(self) -> float:
        return self._decode_requirement

    def decode_speed(self) -> float:
        """Fraction of real-time the decoder sustains under current load.

        OS scheduling makes the CPU actually granted to the decoder
        fluctuate tick-to-tick, so moderate load produces intermittent
        stutter rather than a hard cliff -- the source of *mild* QoE
        degradation under the ``stress`` fault.
        """
        if self._decode_requirement <= 0:
            return 1.0
        available = max(0.0, 1.0 - self.base_cpu - self.stress_cpu - NET_CPU_COST)
        available += self.sim.normal(0.0, 0.08)
        return max(0.0, min(1.0, available / self._decode_requirement))

    def recv_capacity(self) -> int:
        """TCP receive buffer available to the stream (memory pressure)."""
        free = self.free_memory_true()
        if free >= 0.12:
            return RWND_FULL
        scale = (free / 0.12) ** 2
        return max(RWND_MIN, int(RWND_FULL * scale))

    # -- probe-visible state --------------------------------------------------

    def cpu_utilization(self) -> float:
        decode_used = self._decode_requirement * self.decode_speed() if self._streaming else 0.0
        net = NET_CPU_COST if self._streaming else 0.0
        return min(1.0, self.base_cpu + self.stress_cpu + decode_used + net)

    def free_memory_true(self) -> float:
        used = OS_MEMORY + self.base_mem + self.stress_mem
        if self._streaming:
            used += PLAYER_MEMORY
        return max(0.02, 1.0 - used)

    def free_memory(self) -> float:
        return self.free_memory_true()


class RouterDevice:
    """The home router/AP: CPU follows forwarding load."""

    def __init__(self, sim: Simulator, node: Router) -> None:
        self.sim = sim
        self.node = node
        self._last_time = 0.0
        self._last_busy = 0.0

    def cpu_utilization(self) -> float:
        """Bridge utilisation over the window since the last call."""
        now = self.sim.now
        busy = self.node.bridge.busy_time
        dt = now - self._last_time
        util = (busy - self._last_busy) / dt if dt > 0 else 0.0
        self._last_time = now
        self._last_busy = busy
        return min(1.0, 0.04 + util)

    def free_memory(self) -> float:
        queue_frac = self.node.bridge.queued_bytes / max(
            1, self.node.bridge.queue_limit_bytes
        )
        return max(0.05, 0.6 - 0.3 * queue_frac)


class ServerDevice:
    """The content server: CPU/memory follow the ApacheBench load."""

    def __init__(self, sim: Simulator, video_server: VideoServer) -> None:
        self.sim = sim
        self.video_server = video_server

    def cpu_utilization(self) -> float:
        return self.video_server.cpu_utilization()

    def free_memory(self) -> float:
        return self.video_server.free_memory()
