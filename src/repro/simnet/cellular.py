"""Cellular (3G/HSPA-era) access model.

The wild deployment of Section 6.2 streams mostly over 3G, and the paper
suggests that detection could be improved "by introducing more VPs (e.g.,
on 3G RNCs)".  This module provides the access substrate for that
extension:

* a :class:`CellularCell` with a shared downlink capacity, background cell
  load, and per-UE channel quality derived from RSCP (the cellular RSSI);
* per-UE radio bearers with RNC-side queues, CQI-dependent instantaneous
  rates and HARQ-style retransmissions at low quality;
* mobility-driven signal wander and **handovers**: when the serving
  signal degrades, the UE is handed to a neighbouring cell after a short
  outage, and its signal is redrawn.

The interface mirrors :class:`repro.simnet.wireless.WifiMedium` so a
testbed can attach phone/RNC interfaces the same way.  An RNC-side probe
(:class:`repro.probes.rnc.RncProbe`) exposes the per-UE state that a
mobile operator could measure.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Optional

from repro.simnet.engine import Simulator
from repro.simnet.node import Interface
from repro.simnet.packet import Packet

#: (min RSCP dBm, CQI class, share of cell capacity a sole user gets)
CQI_TABLE = [
    (-115.0, 1, 0.08),
    (-108.0, 3, 0.2),
    (-102.0, 6, 0.4),
    (-96.0, 9, 0.65),
    (-88.0, 12, 0.85),
    (-80.0, 15, 1.0),
]

HANDOVER_RSCP = -110.0
HANDOVER_OUTAGE_S = (0.3, 1.2)
HARQ_MAX_RETX = 3
FRAME_OVERHEAD_S = 2e-3  # TTI-ish per-transmission overhead


def cqi_for_rscp(rscp_dbm: float):
    """Map received signal code power to (CQI class, capacity share)."""
    best = CQI_TABLE[0]
    for entry in CQI_TABLE:
        if rscp_dbm >= entry[0]:
            best = entry
    return best[1], best[2]


def block_error_prob(rscp_dbm: float) -> float:
    """First-transmission BLER; HARQ recovers most of it."""
    if rscp_dbm >= -95.0:
        return 0.02
    return min(0.7, 0.02 + 0.04 * (-95.0 - rscp_dbm))


class CellularUe:
    """One user equipment attached to the cell."""

    def __init__(
        self,
        cell: "CellularCell",
        name: str,
        iface: Interface,
        base_rscp: float = -85.0,
        shadow_sigma: float = 3.0,
        queue_limit_bytes: int = 384 * 1024,
    ):
        self.cell = cell
        self.name = name
        self.iface = iface
        self.base_rscp = base_rscp
        self.shadow_sigma = shadow_sigma
        self.queue_limit_bytes = queue_limit_bytes
        self.queue: deque[Packet] = deque()
        self.queued_bytes = 0
        self.sending = False
        self.in_outage = False

        self._shadow = 0.0
        self._shadow_updated = 0.0

        # RNC-observable counters.
        self.pdus_tx = 0
        self.harq_retx = 0
        self.pdu_drops = 0
        self.queue_drops = 0
        self.handovers = 0
        self.rate_sum = 0.0
        self.rate_samples = 0
        self.airtime = 0.0

    # -- radio state ---------------------------------------------------------

    def rscp(self, now: float) -> float:
        """Serving-cell signal with OU shadowing (the cellular RSSI)."""
        dt = now - self._shadow_updated
        if dt > 0:
            theta = 0.3
            decay = math.exp(-theta * dt)
            std = self.shadow_sigma * math.sqrt(max(0.0, 1.0 - decay * decay))
            self._shadow = self._shadow * decay + self.cell.sim.normal(0.0, std)
            self._shadow_updated = now
        return self.base_rscp + self._shadow

    def current_rate(self, now: float) -> float:
        """Instantaneous downlink rate granted by the scheduler."""
        _cqi, share = cqi_for_rscp(self.rscp(now))
        free = max(0.05, 1.0 - self.cell.background_load)
        return max(32e3, self.cell.capacity_bps * share * free)

    @property
    def mean_rate(self) -> float:
        if self.rate_samples == 0:
            return 0.0
        return self.rate_sum / self.rate_samples


class _UePort:
    """Outbound path of the phone: uplink through the cell."""

    def __init__(self, cell: "CellularCell", ue: CellularUe):
        self.cell = cell
        self.ue = ue

    def send(self, pkt: Packet) -> bool:
        return self.cell.send_uplink(self.ue, pkt)


class _RncPort:
    """Outbound path of the RNC towards its UEs (downlink)."""

    def __init__(self, cell: "CellularCell"):
        self.cell = cell

    def send(self, pkt: Packet) -> bool:
        ue = self.cell.ues.get(pkt.dst)
        if ue is None:
            return False
        return self.cell.send_downlink(ue, pkt)


class CellularCell:
    """A 3G cell: shared capacity, per-UE bearers, handovers."""

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float = 7.2e6,
        uplink_bps: float = 1.5e6,
        background_load: float = 0.3,
        uplink_latency: float = 0.035,
        downlink_latency: float = 0.035,
    ):
        self.sim = sim
        self.capacity_bps = capacity_bps
        self.uplink_bps = uplink_bps
        self.background_load = min(0.9, max(0.0, background_load))
        self.uplink_latency = uplink_latency
        self.downlink_latency = downlink_latency
        self.ues: Dict[str, CellularUe] = {}
        self.rnc_iface: Optional[Interface] = None
        self._uplink_busy_until = 0.0
        #: signal range of neighbouring cells: a handover redraws the UE's
        #: base RSCP from here.  Poor-coverage areas narrow this range down.
        self.handover_rscp_range = (-100.0, -75.0)

    # -- topology ----------------------------------------------------------

    def attach_rnc(self, iface: Interface) -> None:
        """The RNC side: delivers uplink traffic into the core network."""
        self.rnc_iface = iface
        iface.attach_sender(_RncPort(self))

    def add_ue(
        self,
        name: str,
        iface: Interface,
        base_rscp: float = -85.0,
        shadow_sigma: float = 3.0,
    ) -> CellularUe:
        if name in self.ues:
            raise ValueError(f"duplicate UE {name!r}")
        ue = CellularUe(self, name, iface, base_rscp=base_rscp,
                        shadow_sigma=shadow_sigma)
        self.ues[name] = ue
        iface.attach_sender(_UePort(self, ue))
        return ue

    def set_background_load(self, load: float) -> None:
        self.background_load = min(0.9, max(0.0, load))

    # -- downlink -----------------------------------------------------------

    def send_downlink(self, ue: CellularUe, pkt: Packet) -> bool:
        if ue.queued_bytes + pkt.size > ue.queue_limit_bytes:
            ue.queue_drops += 1
            return False
        ue.queue.append(pkt)
        ue.queued_bytes += pkt.size
        if not ue.sending and not ue.in_outage:
            self._serve_next(ue)
        return True

    def _serve_next(self, ue: CellularUe) -> None:
        if not ue.queue or ue.in_outage:
            ue.sending = False
            return
        ue.sending = True
        pkt = ue.queue.popleft()
        ue.queued_bytes -= pkt.size
        self._transmit(ue, pkt, attempt=0)

    def _transmit(self, ue: CellularUe, pkt: Packet, attempt: int) -> None:
        now = self.sim.now
        rscp = ue.rscp(now)
        if rscp < HANDOVER_RSCP and not ue.in_outage:
            self._handover(ue, pkt)
            return
        rate = ue.current_rate(now)
        ue.rate_sum += rate
        ue.rate_samples += 1
        airtime = FRAME_OVERHEAD_S + pkt.size * 8.0 / rate
        ue.airtime += airtime
        failed = self.sim.chance(block_error_prob(rscp))
        self.sim.schedule(airtime, self._tx_done, ue, pkt, attempt, failed)

    def _tx_done(self, ue: CellularUe, pkt: Packet, attempt: int, failed: bool) -> None:
        if failed:
            ue.harq_retx += 1
            if attempt + 1 > HARQ_MAX_RETX:
                ue.pdu_drops += 1
                self._serve_next(ue)
            else:
                self._transmit(ue, pkt, attempt + 1)
            return
        ue.pdus_tx += 1
        self.sim.schedule(self.downlink_latency, ue.iface.deliver, pkt)
        self._serve_next(ue)

    # -- uplink --------------------------------------------------------------

    def send_uplink(self, ue: CellularUe, pkt: Packet) -> bool:
        """Shared uplink: FIFO serialization at the uplink rate."""
        if self.rnc_iface is None:
            raise RuntimeError("cell has no RNC attached")
        if ue.in_outage:
            return False
        now = self.sim.now
        start = max(now, self._uplink_busy_until)
        tx_time = pkt.size * 8.0 / self.uplink_bps
        self._uplink_busy_until = start + tx_time
        delay = (start - now) + tx_time + self.uplink_latency
        self.sim.schedule(delay, self.rnc_iface.deliver, pkt)
        return True

    # -- mobility ------------------------------------------------------------

    def _handover(self, ue: CellularUe, pending: Optional[Packet]) -> None:
        """Hand the UE to a neighbour cell: outage, then signal redraw."""
        ue.in_outage = True
        ue.handovers += 1
        if pending is not None:
            ue.queue.appendleft(pending)
            ue.queued_bytes += pending.size
        outage = self.sim.uniform(*HANDOVER_OUTAGE_S)
        self.sim.schedule(outage, self._handover_done, ue)

    def _handover_done(self, ue: CellularUe) -> None:
        ue.in_outage = False
        # The new serving cell is as good as the local coverage allows.
        ue.base_rscp = self.sim.uniform(*self.handover_rscp_range)
        ue._shadow = 0.0
        ue.sending = False
        if ue.queue:
            self._serve_next(ue)
