"""Link/physical-layer probe for wireless NICs.

Per Section 3.1: "for wireless links, the radio technology, the advertised
rate and signal strength information (RSSI) for each of the connected
devices is monitored", with per-flow aggregates such as "the
average/minimum RSSI or the number of disconnections/handovers during the
flow".  RSSI is sampled at one-second intervals, as in the paper
(Section 3.2).

This probe is only available at the vantage point that owns the radio --
in the testbed, the mobile device (and the AP for its own stations); the
router and server VPs have no RSSI information, which drives the paper's
per-VP accuracy asymmetries for wireless faults.
"""

from __future__ import annotations

from typing import Dict

from repro.probes.hardware import _Aggregate
from repro.simnet.engine import Simulator
from repro.simnet.wireless import WifiStation

SAMPLE_INTERVAL_S = 1.0


class RadioProbe:
    """Samples one station's radio state during a video flow."""

    def __init__(self, sim: Simulator, station: WifiStation, noise_std: float = 1.0):
        self.sim = sim
        self.station = station
        self.noise_std = noise_std
        self.rssi = _Aggregate()
        self.phy_rate = _Aggregate()
        self._event = None
        self._running = False
        self._start_counters: Dict[str, float] = {}

    def start(self) -> None:
        if self._running:
            raise RuntimeError("probe already running")
        self._running = True
        st = self.station
        self._start_counters = {
            "retries": st.retries,
            "frame_drops": st.frame_drops,
            "queue_drops": st.queue_drops,
            "disconnections": st.disconnections,
            "frames_tx": st.frames_tx,
            "frames_rx": st.frames_rx,
            "airtime": st.airtime,
            "rate_sum": st.rate_sum,
            "rate_samples": st.rate_samples,
        }
        self._start_time = self.sim.now
        self._sample()

    def stop(self) -> Dict[str, float]:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None
        st = self.station
        window = max(1e-9, self.sim.now - self._start_time)
        d = {k: getattr(st, k) - v for k, v in self._start_counters.items()}
        frames = d["frames_tx"] + d["frames_rx"]
        rate_avg = (
            d["rate_sum"] / d["rate_samples"] if d["rate_samples"] > 0 else 0.0
        )
        out: Dict[str, float] = {
            "retries": d["retries"],
            "retry_rate": d["retries"] / frames if frames > 0 else 0.0,
            "frame_drops": d["frame_drops"],
            "queue_drops": d["queue_drops"],
            "disconnections": d["disconnections"],
            "airtime_frac": min(1.0, d["airtime"] / window),
            "phy_rate_avg": rate_avg,
        }
        out.update(self.rssi.metrics("rssi"))
        # The paper keeps only the session-average RSSI after feature
        # construction, but the raw min/max/std are part of the 354-metric
        # space that feature selection prunes.
        return out

    def _sample(self) -> None:
        if not self._running:
            return
        value = self.station.rssi(self.sim.now) + self.sim.normal(0.0, self.noise_std)
        self.rssi.add(value)
        self._event = self.sim.schedule(SAMPLE_INTERVAL_S, self._sample)
