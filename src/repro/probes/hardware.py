"""OS/hardware-layer probe: CPU utilisation and free memory at 1 Hz.

The paper monitors "the percentage of load, CPU utilization, the amount of
free system memory and so on" at each vantage point, and returns aggregated
per-flow values (average, minimum, maximum, standard deviation).

The probe samples two callables supplied by the device model, adding small
measurement noise, and aggregates over the window between ``start`` and
``stop`` (one video flow).
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from repro.simnet.engine import Simulator

SAMPLE_INTERVAL_S = 1.0


class _Aggregate:
    """Streaming avg/min/max/std accumulator for probe samples."""

    __slots__ = ("n", "mean", "m2", "min", "max")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.n += 1
        d = x - self.mean
        self.mean += d / self.n
        self.m2 += d * (x - self.mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)

    def metrics(self, name: str) -> Dict[str, float]:
        if self.n == 0:
            return {
                f"{name}_avg": 0.0,
                f"{name}_min": 0.0,
                f"{name}_max": 0.0,
                f"{name}_std": 0.0,
            }
        std = math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else 0.0
        return {
            f"{name}_avg": self.mean,
            f"{name}_min": self.min,
            f"{name}_max": self.max,
            f"{name}_std": std,
        }


class HardwareProbe:
    """Samples CPU utilisation and free memory for one device."""

    def __init__(
        self,
        sim: Simulator,
        cpu_fn: Callable[[], float],
        mem_fn: Callable[[], float],
        noise_std: float = 0.02,
    ):
        self.sim = sim
        self.cpu_fn = cpu_fn
        self.mem_fn = mem_fn
        self.noise_std = noise_std
        self.cpu = _Aggregate()
        self.mem = _Aggregate()
        self._event = None
        self._running = False

    def start(self) -> None:
        if self._running:
            raise RuntimeError("probe already running")
        self._running = True
        self._sample()

    def stop(self) -> Dict[str, float]:
        """Stop sampling and return the aggregated metric set."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None
        out: Dict[str, float] = {}
        out.update(self.cpu.metrics("cpu"))
        out.update(self.mem.metrics("mem_free"))
        return out

    def _sample(self) -> None:
        if not self._running:
            return
        noise = self.sim.normal(0.0, self.noise_std)
        self.cpu.add(min(1.0, max(0.0, self.cpu_fn() + noise)))
        noise = self.sim.normal(0.0, self.noise_std)
        self.mem.add(min(1.0, max(0.0, self.mem_fn() + noise)))
        self._event = self.sim.schedule(SAMPLE_INTERVAL_S, self._sample)
