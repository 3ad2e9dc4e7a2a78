"""Passive per-flow TCP analysis (the paper's ``tstat`` probe).

A :class:`TstatProbe` taps one interface and reconstructs, for every TCP
flow it observes, the per-direction statistics documented in tstat's
``log_tcp_complete``: packet/byte counts, retransmission and out-of-order
heuristics, duplicate ACKs, window and MSS tracking, RTT estimation by
data-to-ACK matching, inter-arrival statistics, and timing landmarks such
as the *first payload packet arrival* that the paper's classifier ranks
highly.

Everything is inferred from packet headers and arrival times, exactly as a
passive monitor must: the probe never reads endpoint TCP state.  This
preserves the paper's per-VP asymmetries -- e.g. a router tap measures the
wireless-side RTT from data/ACK gaps even though it terminates no TCP.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.simnet.engine import Simulator
from repro.simnet.node import Interface, Tap
from repro.simnet.packet import FlowKey, Packet, TCP
from repro.simnet.trace import PacketTrace

#: hole-filling data arriving later than this is judged a retransmission
#: rather than reordering (tstat's RTT-based disambiguation).
_REORDER_VS_RETX_GAP_S = 0.025


class _Welford:
    """Streaming mean/std/min/max accumulator."""

    __slots__ = ("n", "mean", "m2", "min", "max")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def std(self) -> float:
        if self.n < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.n - 1))

    def stats(self) -> Tuple[float, float, float, float, int]:
        if self.n == 0:
            return (0.0, 0.0, 0.0, 0.0, 0)
        return (self.mean, self.min, self.max, self.std, self.n)


class _IntervalSet:
    """Merged set of half-open byte ranges already seen in one direction."""

    __slots__ = ("spans",)

    def __init__(self):
        self.spans: List[List[int]] = []  # sorted, disjoint [start, end)

    def add(self, start: int, end: int) -> Tuple[int, bool]:
        """Insert ``[start, end)``; return (new_bytes, overlapped)."""
        if end <= start:
            return 0, False
        new_bytes = end - start
        overlapped = False
        merged: List[List[int]] = []
        placed = False
        for span in self.spans:
            if span[1] < start or span[0] > end:
                merged.append(span)
                continue
            overlap_lo = max(span[0], start)
            overlap_hi = min(span[1], end)
            if overlap_hi > overlap_lo:
                overlapped = True
                new_bytes -= overlap_hi - overlap_lo
            start = min(start, span[0])
            end = max(end, span[1])
        merged.append([start, end])
        merged.sort()
        self.spans = merged
        return max(0, new_bytes), overlapped

    @property
    def max_seen(self) -> int:
        return self.spans[-1][1] if self.spans else 0


class DirectionStats:
    """Counters for one direction of a flow, as tstat reports them."""

    def __init__(self):
        self.pkts = 0
        self.bytes = 0
        self.data_pkts = 0
        self.data_bytes = 0
        self.unique_bytes = 0
        self.retx_pkts = 0
        self.retx_bytes = 0
        self.ooo_pkts = 0
        self.reordered_pkts = 0
        self.pure_acks = 0
        self.dup_acks = 0
        self.syn_count = 0
        self.fin_count = 0
        self.rst_count = 0
        self.sack_acks = 0
        self.win_stats = _Welford()
        self.win_zero = 0
        self.mss_opt: Optional[int] = None
        self.seg_size = _Welford()
        self.ttl_min = 255
        self.ttl_max = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None
        self.first_payload_time: Optional[float] = None
        self.last_payload_time: Optional[float] = None
        self.rtt = _Welford()
        self.iat = _Welford()
        self._seen = _IntervalSet()
        self._last_ack_seen: Optional[int] = None
        self._last_seq_end = 0
        self._advance_time = 0.0  # when _last_seq_end last moved forward
        self._pending_rtt: Dict[int, float] = {}  # seq_end -> first tx seen
        self._rtt_samples: List[float] = []  # capped reservoir for percentiles
        self._second_bins: Dict[int, int] = {}  # 1s bucket -> bytes
        self.max_outstanding = 0  # peak unacked bytes (cwnd estimate)

    # -- per-packet update -------------------------------------------------

    def on_packet(self, pkt: Packet, now: float) -> None:
        if self.first_time is None:
            self.first_time = now
        if self.last_time is not None:
            self.iat.add(now - self.last_time)
        self.last_time = now
        self.pkts += 1
        size = pkt.size
        self.bytes += size
        bins = self._second_bins
        bucket = int(now)
        if len(bins) < 4096:
            bins[bucket] = bins.get(bucket, 0) + size
        ttl = pkt.ttl
        if ttl < self.ttl_min:
            self.ttl_min = ttl
        if ttl > self.ttl_max:
            self.ttl_max = ttl
        self.win_stats.add(pkt.wnd)
        if pkt.wnd == 0:
            self.win_zero += 1
        if pkt.is_syn:
            self.syn_count += 1
            if pkt.mss_opt is not None:
                self.mss_opt = pkt.mss_opt
        if pkt.is_fin:
            self.fin_count += 1
        if pkt.is_rst:
            self.rst_count += 1
        if pkt.sack:
            self.sack_acks += 1

        if pkt.payload_len > 0:
            self._on_data(pkt, now)
        elif pkt.is_pure_ack:
            self.pure_acks += 1
            if pkt.ack == self._last_ack_seen:
                self.dup_acks += 1
            self._last_ack_seen = pkt.ack

    def _on_data(self, pkt: Packet, now: float) -> None:
        self.data_pkts += 1
        self.data_bytes += pkt.payload_len
        self.seg_size.add(pkt.payload_len)
        if self.first_payload_time is None:
            self.first_payload_time = now
        self.last_payload_time = now
        seq_end = pkt.seq + pkt.payload_len
        new_bytes, overlapped = self._seen.add(pkt.seq, seq_end)
        self.unique_bytes += new_bytes
        if overlapped and new_bytes == 0:
            # Entirely previously-seen bytes: a retransmission.
            self.retx_pkts += 1
            self.retx_bytes += pkt.payload_len
            self._pending_rtt.pop(seq_end, None)  # Karn at the wire
        elif pkt.seq < self._last_seq_end and not overlapped:
            # New data below the highest sequence seen: either network
            # reordering or -- at a tap downstream of the loss point -- the
            # retransmission of a segment we never saw.  tstat separates the
            # two by timing: reordered packets trail by at most a few
            # milliseconds, retransmissions by at least one RTT.
            gap = now - self._advance_time
            if gap > _REORDER_VS_RETX_GAP_S:
                self.retx_pkts += 1
                self.retx_bytes += pkt.payload_len
            else:
                self.ooo_pkts += 1
                self.reordered_pkts += 1
        else:
            if len(self._pending_rtt) < 4096:
                self._pending_rtt.setdefault(seq_end, now)
        if seq_end > self._last_seq_end:
            self._last_seq_end = seq_end
            self._advance_time = now

    def match_ack(self, ack: int, now: float) -> None:
        """An ACK from the opposite direction covering our data."""
        matched = [s for s in self._pending_rtt if s <= ack]
        if not matched:
            return
        # Sample only the newest covered segment (freshest estimate).
        newest = max(matched)
        sample = now - self._pending_rtt[newest]
        self.rtt.add(sample)
        if len(self._rtt_samples) < 2048:
            self._rtt_samples.append(sample)
        else:  # deterministic decimation keeps the reservoir spread out
            self._rtt_samples[self.rtt.n % 2048] = sample
        for s in matched:
            del self._pending_rtt[s]

    # -- export -------------------------------------------------------------

    def _rtt_percentile(self, q: float) -> float:
        if not self._rtt_samples:
            return 0.0
        ordered = sorted(self._rtt_samples)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def _throughput_window_stats(self) -> Tuple[float, float, float, int]:
        """(avg, std, max, idle seconds) of per-second byte rates."""
        if not self._second_bins or self.first_time is None:
            return (0.0, 0.0, 0.0, 0)
        start = int(self.first_time)
        end = int(self.last_time)
        seconds = max(1, end - start + 1)
        rates = [self._second_bins.get(s, 0) * 8.0 for s in range(start, end + 1)]
        idle = sum(1 for r in rates if r == 0)
        mean = sum(rates) / seconds
        var = sum((r - mean) ** 2 for r in rates) / seconds
        return (mean, math.sqrt(var), max(rates), idle)

    def metrics(self, prefix: str) -> Dict[str, float]:
        """Flatten to tstat-style metric names with a direction prefix."""
        rtt_avg, rtt_min, rtt_max, rtt_std, rtt_n = self.rtt.stats()
        iat_avg, _iat_min, iat_max, iat_std, _ = self.iat.stats()
        win_avg, win_min, win_max, win_std, _ = self.win_stats.stats()
        seg_avg, seg_min, seg_max, _seg_std, _ = self.seg_size.stats()
        first = self.first_time if self.first_time is not None else 0.0
        last = self.last_time if self.last_time is not None else first
        duration = max(0.0, last - first)
        out = {
            "pkts": float(self.pkts),
            "bytes": float(self.bytes),
            "data_pkts": float(self.data_pkts),
            "data_bytes": float(self.data_bytes),
            "unique_bytes": float(self.unique_bytes),
            "retx_pkts": float(self.retx_pkts),
            "retx_bytes": float(self.retx_bytes),
            "ooo_pkts": float(self.ooo_pkts),
            "reordered_pkts": float(self.reordered_pkts),
            "pure_acks": float(self.pure_acks),
            "dup_acks": float(self.dup_acks),
            "syn_cnt": float(self.syn_count),
            "fin_cnt": float(self.fin_count),
            "rst_cnt": float(self.rst_count),
            "sack_acks": float(self.sack_acks),
            "win_max": win_max,
            "win_min": win_min,
            "win_avg": win_avg,
            "win_std": win_std,
            "win_zero_cnt": float(self.win_zero),
            "mss": float(self.mss_opt or 0),
            "seg_size_avg": seg_avg,
            "seg_size_min": seg_min,
            "seg_size_max": seg_max,
            "ttl_min": float(self.ttl_min if self.pkts else 0),
            "ttl_max": float(self.ttl_max),
            "rtt_avg": rtt_avg,
            "rtt_min": rtt_min,
            "rtt_max": rtt_max,
            "rtt_std": rtt_std,
            "rtt_cnt": float(rtt_n),
            "iat_avg": iat_avg,
            "iat_max": iat_max,
            "iat_std": iat_std,
            "duration": duration,
            "throughput": (self.bytes * 8.0 / duration) if duration > 0 else 0.0,
        }
        tput_avg, tput_std, tput_max, idle = self._throughput_window_stats()
        out.update({
            "rtt_p50": self._rtt_percentile(0.50),
            "rtt_p95": self._rtt_percentile(0.95),
            "tput1s_avg": tput_avg,
            "tput1s_std": tput_std,
            "tput1s_max": tput_max,
            "idle_1s_cnt": float(idle),
            "max_outstanding": float(self.max_outstanding),
        })
        return {f"{prefix}_{k}": v for k, v in out.items()}


class FlowStats:
    """Both directions of one flow plus flow-level timing landmarks."""

    def __init__(self, key: FlowKey):
        self.key = key  # c2s orientation (client = initiator)
        # Cached for the per-packet direction test (no tuple construction).
        self._c_src = key.src
        self._c_sport = key.sport
        self.c2s = DirectionStats()
        self.s2c = DirectionStats()
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.handshake_rtt: Optional[float] = None
        self._syn_time: Optional[float] = None
        self._synack_seen = False

    def on_packet(self, pkt: Packet, now: float) -> None:
        if self.start_time is None:
            self.start_time = now
        self.end_time = now
        forward = pkt.src == self._c_src and pkt.sport == self._c_sport
        direction = self.c2s if forward else self.s2c
        opposite = self.s2c if forward else self.c2s
        direction.on_packet(pkt, now)
        if pkt.is_ack:
            opposite.match_ack(pkt.ack, now)
            # Peak unacked bytes in the opposite direction: a passive
            # estimate of the sender's congestion window (tstat's cwnd).
            outstanding = opposite._last_seq_end - pkt.ack
            if outstanding > opposite.max_outstanding:
                opposite.max_outstanding = outstanding
        if pkt.is_syn and not pkt.is_ack and self._syn_time is None:
            self._syn_time = now
        elif pkt.is_syn and pkt.is_ack and not self._synack_seen:
            self._synack_seen = True
            if self._syn_time is not None:
                self.handshake_rtt = now - self._syn_time

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        out.update(self.c2s.metrics("c2s"))
        out.update(self.s2c.metrics("s2c"))
        start = self.start_time if self.start_time is not None else 0.0
        end = self.end_time if self.end_time is not None else start
        out["flow_duration"] = max(0.0, end - start)
        out["handshake_rtt"] = self.handshake_rtt or 0.0
        # "First packet arrival": delay from flow start (first SYN seen) to
        # the first payload packet towards the client.  The paper ranks this
        # feature highly for congestion/shaping detection.
        if self.s2c.first_payload_time is not None:
            out["first_payload_delay"] = self.s2c.first_payload_time - start
        else:
            out["first_payload_delay"] = 0.0
        if self.c2s.first_payload_time is not None:
            out["request_delay"] = self.c2s.first_payload_time - start
        else:
            out["request_delay"] = 0.0
        total_pkts = self.c2s.pkts + self.s2c.pkts
        out["total_pkts"] = float(total_pkts)
        out["total_bytes"] = float(self.c2s.bytes + self.s2c.bytes)
        return out


class TstatProbe:
    """Passive flow monitor attached to one interface.

    Metrics are streaming accumulators: per-packet observation updates
    rolling counters and Welford moments, never a growing packet list.
    Pass ``retain_trace=True`` to additionally keep the raw TCP packets
    in a :class:`~repro.simnet.trace.PacketTrace` (``.trace``) for
    offline replay or persistence -- off by default, since retention
    turns a constant-memory probe into an O(packets) one.
    """

    def __init__(
        self, sim: Simulator, name: str = "tstat", retain_trace: bool = False
    ):
        self.sim = sim
        self.name = name
        self.flows: Dict[FlowKey, FlowStats] = {}
        # Per-packet lookup table holding BOTH orientations of every flow
        # key, so the hot path never constructs a reversed FlowKey.
        self._by_key: Dict[FlowKey, FlowStats] = {}
        self._taps: List[Tuple[Interface, Tap]] = []
        self.enabled = True
        self.trace: Optional[PacketTrace] = (
            PacketTrace(description=name) if retain_trace else None
        )

    # -- attachment ----------------------------------------------------------

    def attach(self, iface: Interface) -> None:
        tap = Tap(self._observe, name=self.name)
        iface.add_tap(tap)
        self._taps.append((iface, tap))

    def detach(self) -> None:
        for iface, tap in self._taps:
            iface.remove_tap(tap)
        self._taps.clear()

    # -- observation ----------------------------------------------------------

    def _observe(self, pkt: Packet, direction: str, now: float) -> None:
        if not self.enabled or pkt.proto != TCP:
            return
        if self.trace is not None:
            self.trace.record(pkt, direction, now)
        key = pkt.flow_key
        flow = self._by_key.get(key)
        if flow is None:
            # Orient the flow: the SYN sender is the client.  If we missed
            # the SYN, fall back to canonical orientation.
            if pkt.is_syn and not pkt.is_ack:
                oriented = key
            elif pkt.is_syn and pkt.is_ack:
                oriented = key.reversed()
            else:
                oriented = key.canonical()
            flow = FlowStats(oriented)
            self.flows[oriented] = flow
            self._by_key[oriented] = flow
            self._by_key[oriented.reversed()] = flow
        flow.on_packet(pkt, now)

    # -- accessors -----------------------------------------------------------

    def flow(self, key: FlowKey) -> Optional[FlowStats]:
        return self._by_key.get(key)

    def metrics_for(self, key: FlowKey) -> Dict[str, float]:
        """tstat metrics for one flow; all-zero dict if never observed."""
        flow = self.flow(key)
        if flow is None:
            return {k: 0.0 for k in FlowStats(key).metrics()}
        return flow.metrics()

    def reset(self) -> None:
        self.flows.clear()
        self._by_key.clear()
        if self.trace is not None:
            self.trace.entries.clear()
