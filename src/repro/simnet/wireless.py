"""Shared 802.11 medium: RSSI, rate adaptation, contention and interference.

The model captures exactly the observables the paper's faults manipulate:

* **Low RSSI** (distance / attenuation at the AP) lowers the SNR, which
  drops the selected PHY rate and raises the per-frame error rate -- the
  video throughput collapses and the radio probe sees a low RSSI and
  link-layer retries.
* **WiFi interference** (an adjacent WLAN on the same channel) occupies
  airtime and causes collisions -- throughput and jitter degrade *without*
  any change in RSSI, which is why only probes with radio access can tell
  the two apart (Section 5.3 of the paper).

One frame occupies the medium at a time (no spatial reuse); stations with
queued frames contend with randomized backoff, approximating DCF fairness.
Frames that exhaust their retry budget are dropped, surfacing as IP loss to
TCP.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Optional

from repro.simnet.engine import Simulator
from repro.simnet.node import Interface
from repro.simnet.packet import Packet

#: (min SNR dB, PHY rate bit/s) -- roughly 802.11a/b/g/n single-stream rates,
#: spanning the 1..70 Mbit/s range used for LAN shaping in Table 2.
RATE_TABLE = [
    (1.0, 1e6),
    (2.0, 2e6),
    (4.0, 5.5e6),
    (6.0, 6.5e6),
    (8.0, 13e6),
    (11.0, 19.5e6),
    (14.0, 26e6),
    (17.0, 39e6),
    (21.0, 52e6),
    (25.0, 58.5e6),
    (28.0, 65e6),
]

MAC_OVERHEAD_S = 100e-6  # preamble + SIFS + ACK, per attempt
SLOT_TIME_S = 9e-6
MAX_RETRIES = 7
RATE_MARGIN_DB = 2.0
DISCONNECT_RSSI = -88.0


def select_rate(snr_db: float) -> float:
    """Highest PHY rate whose SNR requirement is met with margin."""
    best = RATE_TABLE[0][1]
    for min_snr, rate in RATE_TABLE:
        if snr_db >= min_snr + RATE_MARGIN_DB:
            best = rate
    return best


def frame_error_prob(snr_db: float, rate_bps: float) -> float:
    """Per-attempt frame error probability for ``rate`` at ``snr``."""
    threshold = RATE_TABLE[0][0]
    for min_snr, rate in RATE_TABLE:
        if rate == rate_bps:
            threshold = min_snr
            break
    margin = snr_db - threshold
    return min(0.9, 0.5 * math.exp(-0.8 * margin))


class WifiStation:
    """A radio participant: the AP or one client device."""

    def __init__(
        self,
        medium: "WifiMedium",
        name: str,
        iface: Interface,
        base_rssi: float = -45.0,
        shadow_sigma: float = 2.0,
        is_ap: bool = False,
        queue_limit_bytes: int = 256 * 1024,
    ):
        self.medium = medium
        self.name = name
        self.iface = iface
        self.base_rssi = base_rssi
        self.attenuation = 0.0  # extra path loss injected by faults (dB)
        self.shadow_sigma = shadow_sigma
        self.is_ap = is_ap
        self.queue_limit_bytes = queue_limit_bytes
        self.queue: deque[Packet] = deque()
        self.queued_bytes = 0

        self._shadow = 0.0
        self._shadow_updated = 0.0

        # Radio statistics consumed by the radio probe.
        self.frames_tx = 0
        self.frames_rx = 0
        self.retries = 0
        self.frame_drops = 0
        self.queue_drops = 0
        self.airtime = 0.0
        self.rate_sum = 0.0
        self.rate_samples = 0
        self.disconnections = 0
        self._was_connected = True

    def rssi(self, now: float) -> float:
        """Current received signal strength (dBm), with OU shadowing."""
        dt = now - self._shadow_updated
        if dt > 0:
            theta = 0.5  # mean-reversion rate (1/s)
            decay = math.exp(-theta * dt)
            noise_std = self.shadow_sigma * math.sqrt(max(0.0, 1.0 - decay * decay))
            self._shadow = self._shadow * decay + self.medium.sim.normal(0.0, noise_std)
            self._shadow_updated = now
        value = self.base_rssi - self.attenuation + self._shadow
        connected = value >= DISCONNECT_RSSI
        if self._was_connected and not connected:
            self.disconnections += 1
        self._was_connected = connected
        return value

    def snr(self, now: float) -> float:
        return self.rssi(now) - self.medium.noise_floor

    @property
    def mean_phy_rate(self) -> float:
        if self.rate_samples == 0:
            return 0.0
        return self.rate_sum / self.rate_samples


class _WifiPort:
    """Interface-compatible sender that enqueues frames on the medium."""

    def __init__(self, medium: "WifiMedium", station: WifiStation):
        self.medium = medium
        self.station = station

    def send(self, pkt: Packet) -> bool:
        return self.medium.enqueue(self.station, pkt)


class WifiMedium:
    """The shared wireless channel between the AP and its stations."""

    def __init__(self, sim: Simulator, name: str = "wlan0", noise_floor: float = -95.0):
        self.sim = sim
        self.name = name
        self.noise_floor = noise_floor
        self.stations: Dict[str, WifiStation] = {}
        self.ap: Optional[WifiStation] = None
        #: fraction of airtime consumed by an adjacent WLAN (interference
        #: fault); 0 means a clean channel.
        self.interference_duty = 0.0
        #: optional PHY-rate ceiling (bit/s) -- the LAN-shaping fault caps
        #: the WLAN at a lower 802.11 standard's rate, as in Table 2.
        self.rate_cap: Optional[float] = None
        self._busy = False
        self._backlog: list[WifiStation] = []
        self.busy_time = 0.0
        self.collisions = 0

    # -- topology ----------------------------------------------------------

    def add_station(
        self,
        name: str,
        iface: Interface,
        base_rssi: float = -45.0,
        is_ap: bool = False,
        shadow_sigma: float = 2.0,
    ) -> WifiStation:
        if name in self.stations:
            raise ValueError(f"duplicate station {name!r}")
        station = WifiStation(
            self, name, iface, base_rssi=base_rssi, is_ap=is_ap,
            shadow_sigma=shadow_sigma,
        )
        self.stations[name] = station
        if is_ap:
            if self.ap is not None:
                raise ValueError("medium already has an AP")
            self.ap = station
        iface.attach_sender(_WifiPort(self, station))
        return station

    def set_interference(self, duty: float) -> None:
        """Set the adjacent-WLAN airtime occupancy in ``[0, 0.97]``."""
        self.interference_duty = min(0.97, max(0.0, duty))

    def set_rate_cap(self, cap: Optional[float]) -> None:
        """Cap the selected PHY rate (``None`` removes the cap)."""
        if cap is not None and cap <= 0:
            raise ValueError("rate cap must be positive")
        self.rate_cap = cap

    # -- data path ----------------------------------------------------------

    def enqueue(self, station: WifiStation, pkt: Packet) -> bool:
        if station.queued_bytes + pkt.size > station.queue_limit_bytes:
            station.queue_drops += 1
            return False
        station.queue.append(pkt)
        station.queued_bytes += pkt.size
        if station not in self._backlog:
            self._backlog.append(station)
        if not self._busy:
            self._grant()
        return True

    def _resolve_destination(self, src: WifiStation, pkt: Packet) -> Optional[WifiStation]:
        if src.is_ap:
            return self.stations.get(pkt.dst)
        return self.ap

    def _client_side(self, src: WifiStation, dst: WifiStation) -> WifiStation:
        """The non-AP endpoint, whose RSSI governs the link budget."""
        return dst if src.is_ap else src

    def _grant(self) -> None:
        if self._busy or not self._backlog:
            return
        idx = self.sim.rng.randrange(len(self._backlog))
        station = self._backlog[idx]
        pkt = station.queue.popleft()
        station.queued_bytes -= pkt.size
        if not station.queue:
            self._backlog.pop(idx)
        dst = self._resolve_destination(station, pkt)
        if dst is None:
            self._grant_later(0.0)
            return
        self._busy = True
        self._attempt(station, dst, pkt, retries=0)

    def _attempt(
        self, src: WifiStation, dst: WifiStation, pkt: Packet, retries: int
    ) -> None:
        now = self.sim.now
        client = self._client_side(src, dst)
        snr = client.snr(now)
        rate = select_rate(snr)
        if self.rate_cap is not None:
            rate = min(rate, self.rate_cap)
        client.rate_sum += rate
        client.rate_samples += 1

        cw = min(1023, 15 * (2 ** retries))
        backoff = self.sim.rng.uniform(0, cw) * SLOT_TIME_S
        interferer_wait = 0.0
        duty = self.interference_duty
        if duty > 0.0:
            frame_time = MAC_OVERHEAD_S + pkt.size * 8.0 / rate
            interferer_wait = self.sim.expovariate(
                1.0 / max(1e-6, duty / (1.0 - duty) * frame_time)
            )
        airtime = MAC_OVERHEAD_S + pkt.size * 8.0 / rate
        total = backoff + interferer_wait + airtime
        self.busy_time += airtime
        src.airtime += airtime

        collision_p = min(0.5, 0.35 * duty + 0.02 * (len(self._backlog) > 0))
        error_p = frame_error_prob(snr, rate)
        failed = self.sim.chance(collision_p) or self.sim.chance(error_p)
        if failed and self.sim.chance(collision_p):
            self.collisions += 1
        self.sim.post(total, self._attempt_done, src, dst, pkt, retries, failed)

    def _attempt_done(
        self,
        src: WifiStation,
        dst: WifiStation,
        pkt: Packet,
        retries: int,
        failed: bool,
    ) -> None:
        if failed:
            src.retries += 1
            if retries + 1 > MAX_RETRIES:
                src.frame_drops += 1
                self._finish_frame()
            else:
                self._attempt(src, dst, pkt, retries + 1)
            return
        src.frames_tx += 1
        dst.frames_rx += 1
        self._finish_frame()
        dst.iface.deliver(pkt)

    def _finish_frame(self) -> None:
        self._busy = False
        self._grant_later(SLOT_TIME_S)

    def _grant_later(self, delay: float) -> None:
        if self._backlog and not self._busy:
            self.sim.post(delay, self._grant)

    # -- monitoring -----------------------------------------------------------

    def utilization(self, horizon: float) -> float:
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon + self.interference_duty)
