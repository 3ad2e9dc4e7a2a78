"""RNC-side probe for cellular access (Section 6.2 extension).

The paper: detection in the wild "can be minimized by introducing more
VPs (e.g., on 3G RNCs) in order to get more fine grain information about
how smaller variations affect the video QoE".  This probe is that vantage
point: it samples the per-UE radio state the radio network controller
actually has -- RSCP, CQI, granted rate, HARQ retransmissions, handovers
and queue state -- and aggregates it per video flow, exactly like the
WiFi-side radio probe.
"""

from __future__ import annotations

from typing import Dict

from repro.probes.hardware import _Aggregate
from repro.simnet.cellular import CellularUe, cqi_for_rscp
from repro.simnet.engine import Simulator

SAMPLE_INTERVAL_S = 1.0


class RncProbe:
    """Samples one UE's bearer state during a video flow."""

    def __init__(self, sim: Simulator, ue: CellularUe, noise_std: float = 1.0):
        self.sim = sim
        self.ue = ue
        self.noise_std = noise_std
        self.rscp = _Aggregate()
        self.cqi = _Aggregate()
        self.granted_rate = _Aggregate()
        self._event = None
        self._running = False
        self._start_counters: Dict[str, float] = {}
        self._start_time = 0.0

    def start(self) -> None:
        if self._running:
            raise RuntimeError("probe already running")
        self._running = True
        ue = self.ue
        self._start_counters = {
            "pdus_tx": ue.pdus_tx,
            "harq_retx": ue.harq_retx,
            "pdu_drops": ue.pdu_drops,
            "queue_drops": ue.queue_drops,
            "handovers": ue.handovers,
            "airtime": ue.airtime,
        }
        self._start_time = self.sim.now
        self._sample()

    def stop(self) -> Dict[str, float]:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None
        ue = self.ue
        window = max(1e-9, self.sim.now - self._start_time)
        d = {k: getattr(ue, k) - v for k, v in self._start_counters.items()}
        pdus = max(1.0, d["pdus_tx"])
        out: Dict[str, float] = {
            "pdus": d["pdus_tx"],
            "harq_retx": d["harq_retx"],
            "harq_rate": d["harq_retx"] / pdus,
            "pdu_drops": d["pdu_drops"],
            "queue_drops": d["queue_drops"],
            "handovers": d["handovers"],
            "airtime_frac": min(1.0, d["airtime"] / window),
            "cell_load": self.ue.cell.background_load,
        }
        out.update(self.rscp.metrics("rscp"))
        out.update(self.cqi.metrics("cqi"))
        out.update(self.granted_rate.metrics("rate"))
        return out

    def _sample(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        rscp = self.ue.rscp(now) + self.sim.normal(0.0, self.noise_std)
        self.rscp.add(rscp)
        cqi, _share = cqi_for_rscp(rscp)
        self.cqi.add(float(cqi))
        self.granted_rate.add(self.ue.current_rate(now))
        self._event = self.sim.schedule(SAMPLE_INTERVAL_S, self._sample)
