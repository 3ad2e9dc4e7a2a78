"""Link-layer NIC probe: traffic volumes, rates and drops per interface.

For each NIC the paper's probes "extract information about the utilization,
bandwidth, and dropped or retransmitted packets".  This probe snapshots the
interface counters at flow start/stop and derives byte/packet deltas and
average send/receive rates.  The *utilisation* feature (rate divided by the
maximum rate observed for the NIC over the whole dataset) is computed later
by feature construction, which is exactly how the paper normalises it.

Attached to a router it can additionally expose the internal bridge state
(queueing delay and drops), the software equivalent of a home router's
qdisc counters.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.simnet.engine import Simulator
from repro.simnet.link import Channel
from repro.simnet.node import Interface


class LinkProbe:
    """Byte/packet counters for one interface over one flow window."""

    def __init__(
        self,
        sim: Simulator,
        iface: Interface,
        bridge: Optional[Channel] = None,
    ):
        self.sim = sim
        self.iface = iface
        self.bridge = bridge
        self._running = False
        self._snapshot: Dict[str, float] = {}
        self._start_time = 0.0

    def start(self) -> None:
        if self._running:
            raise RuntimeError("probe already running")
        self._running = True
        self._start_time = self.sim.now
        self._snapshot = self._read()

    def stop(self) -> Dict[str, float]:
        self._running = False
        window = max(1e-9, self.sim.now - self._start_time)
        now = self._read()
        d = {k: now[k] - v for k, v in self._snapshot.items()}
        out = {
            "tx_bytes": d["tx_bytes"],
            "rx_bytes": d["rx_bytes"],
            "tx_pkts": d["tx_pkts"],
            "rx_pkts": d["rx_pkts"],
            "tx_drops": d["tx_drops"],
            "tx_rate": d["tx_bytes"] * 8.0 / window,
            "rx_rate": d["rx_bytes"] * 8.0 / window,
        }
        if self.bridge is not None:
            out["bridge_drops"] = d["bridge_drops"]
            out["bridge_busy"] = min(1.0, d["bridge_busy"] / window)
            pkts = max(1.0, d["bridge_pkts"])
            out["bridge_qdelay_avg"] = d["bridge_qdelay"] / pkts
        return out

    def _read(self) -> Dict[str, float]:
        snap = {
            "tx_bytes": float(self.iface.tx_bytes),
            "rx_bytes": float(self.iface.rx_bytes),
            "tx_pkts": float(self.iface.tx_pkts),
            "rx_pkts": float(self.iface.rx_pkts),
            "tx_drops": float(self.iface.tx_drops),
        }
        if self.bridge is not None:
            snap["bridge_drops"] = float(self.bridge.pkts_dropped_queue)
            snap["bridge_busy"] = self.bridge.busy_time
            snap["bridge_qdelay"] = self.bridge.queue_delay_sum
            snap["bridge_pkts"] = float(self.bridge.pkts_sent)
        return snap
