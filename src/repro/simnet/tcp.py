"""SACK-enabled Reno-style TCP over the simulated network.

The transport behaviour is what the paper's probes actually measure
(``tstat`` reconstructs RTT, retransmissions, out-of-order arrivals and
window dynamics from the wire), so this module implements a real protocol
machine rather than an analytic throughput model:

* three-way handshake with SYN retransmission and backoff,
* slow start / congestion avoidance,
* SACK loss recovery (scoreboard + pipe algorithm, RFC 6675 style) with a
  Reno fast-retransmit fallback,
* Jacobson RTO estimation with Karn's algorithm and exponential backoff,
* delayed ACKs with immediate duplicate ACKs on out-of-order data,
* receiver flow control with runtime-adjustable receive capacity
  (memory pressure on the phone shrinks the advertised window),
* FIN teardown.

Payload content is never materialised; applications exchange byte counts.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.simnet.congestion import make_control
from repro.simnet.engine import Simulator
from repro.simnet.node import Node
from repro.simnet.packet import ACK, FIN, Packet, SYN, TCP

INITIAL_RTO = 1.0
MIN_RTO = 0.2
MAX_RTO = 60.0
MAX_SYN_RETRIES = 5
DELACK_TIMEOUT = 0.040
INITIAL_CWND_SEGMENTS = 10  # RFC 6928 initial window
DUPACK_THRESHOLD = 3
MAX_SACK_BLOCKS = 3


class _Segment:
    """Sender-side bookkeeping for one transmitted segment."""

    __slots__ = ("seq", "length", "tx_time", "retx_count", "is_fin", "sacked")

    def __init__(self, seq: int, length: int, tx_time: float, is_fin: bool = False):
        self.seq = seq
        self.length = length
        self.tx_time = tx_time
        self.retx_count = 0
        self.is_fin = is_fin
        self.sacked = False

    @property
    def end(self) -> int:
        return self.seq + self.length + (1 if self.is_fin else 0)


class TcpEndpoint:
    """One side of a TCP connection.

    Application hooks (all optional):

    ``on_established()``
        fired when the handshake completes.
    ``on_data(nbytes, now)``
        fired as in-order payload becomes readable.
    ``on_close()``
        fired when the peer's FIN has been received and all data delivered.
    ``on_fail(reason)``
        fired if the handshake never completes.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        local_port: int,
        peer: str,
        peer_port: int,
        mss: int = 1460,
        recv_capacity: int = 262144,
        wscale: int = 3,
        cc: str = "cubic",
    ):
        self.sim = sim
        self.node = node
        self.local_port = local_port
        self.peer = peer
        self.peer_port = peer_port
        self.mss = mss
        self.peer_mss = mss
        self.wscale = wscale
        self.cc = make_control(cc)

        self.state = "CLOSED"
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[int, float], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_fail: Optional[Callable[[str], None]] = None

        # --- sender state ---
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = INITIAL_CWND_SEGMENTS * mss
        self.ssthresh = 1 << 30
        self.peer_rwnd = 65535
        self.dupacks = 0
        self.in_recovery = False
        self.recover = 0
        self._send_buffer = 0  # bytes the app wants delivered
        self._fin_pending = False
        self._fin_sent = False
        self._segments: Dict[int, _Segment] = {}
        self._seg_order: deque[int] = deque()
        self._app_tag = ""
        # Incremental SACK scoreboard totals: _pipe_bytes is the byte sum
        # of un-sacked outstanding segments (the RFC 6675 pipe estimate),
        # _sacked_total the byte sum of sacked ones.  Kept in lockstep with
        # every _segments mutation so the per-packet window math is O(1).
        self._pipe_bytes = 0
        self._sacked_total = 0
        # Running max of ever-sacked segment ends since the last scoreboard
        # reset.  Valid whenever _sacked_total > 0: retired sacked segments
        # end at or below the cumulative ack, strictly below any segment
        # still outstanding, so the running max equals the live max.
        self._highest_sacked = 0

        # --- receiver state ---
        self.rcv_nxt = 0
        self.recv_capacity = recv_capacity
        self._ooo: Dict[int, int] = {}  # seq -> payload length
        self._peer_fin_seq: Optional[int] = None
        self._delack_pending = 0
        self._delack_event = None
        self._ts_recent = 0.0

        # --- RTT estimation ---
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self._rto_event = None
        self._syn_retries = 0
        self._syn_time = 0.0

        # --- counters (ground truth; probes never read these) ---
        self.stat_retransmits = 0
        self.stat_timeouts = 0
        self.stat_fast_retransmits = 0
        self.stat_rtt_samples = 0
        self.bytes_delivered = 0
        self.bytes_acked = 0

        self.closed = False

    # ------------------------------------------------------------------ API

    def connect(self) -> None:
        """Client side: begin the three-way handshake."""
        if self.state != "CLOSED":
            raise RuntimeError("connect() on a non-closed endpoint")
        self.node.bind(TCP, self.local_port, self._on_packet, self.peer, self.peer_port)
        self.state = "SYN_SENT"
        self._send_syn()

    def accept_from_syn(self, syn: Packet) -> None:
        """Server side: respond to a received SYN."""
        self.state = "SYN_RCVD"
        self.peer_mss = syn.mss_opt or self.mss
        self.mss = min(self.mss, self.peer_mss)
        self.peer_rwnd = syn.wnd
        self.rcv_nxt = syn.seq + 1
        self.node.bind(TCP, self.local_port, self._on_packet, self.peer, self.peer_port)
        self._transmit(flags=SYN | ACK, mss_opt=self.mss, wscale_opt=self.wscale)
        self._arm_rto()

    def send(self, nbytes: int, tag: str = "") -> None:
        """Queue ``nbytes`` of application payload for transmission."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("send() after close()")
        if tag:
            self._app_tag = tag
        self._send_buffer += nbytes
        if self.state == "ESTABLISHED":
            self._try_send()

    def close(self) -> None:
        """Half-close: FIN is emitted once all queued payload is sent."""
        if self._fin_pending or self._fin_sent:
            return
        self._fin_pending = True
        if self.state == "ESTABLISHED":
            self._try_send()

    def abort(self) -> None:
        """Tear down immediately without FIN (used at session timeout)."""
        self._teardown()

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    def set_recv_capacity(self, nbytes: int) -> None:
        """Shrink/grow the receive buffer (memory-pressure hook)."""
        self.recv_capacity = max(2 * self.mss, int(nbytes))

    # -------------------------------------------------------------- handshake

    def _send_syn(self) -> None:
        self._syn_time = self.sim.now
        self._transmit(flags=SYN, mss_opt=self.mss, wscale_opt=self.wscale)
        timeout = min(MAX_RTO, INITIAL_RTO * (2 ** self._syn_retries))
        self._rto_event = self.sim.schedule(timeout, self._syn_timeout)

    def _syn_timeout(self) -> None:
        self._syn_retries += 1
        if self._syn_retries > MAX_SYN_RETRIES:
            self._teardown()
            if self.on_fail:
                self.on_fail("handshake-timeout")
            return
        self._send_syn()

    # ------------------------------------------------------------- packet I/O

    def _transmit(
        self,
        payload: int = 0,
        seq: Optional[int] = None,
        flags: int = ACK,
        retx: bool = False,
        mss_opt: Optional[int] = None,
        wscale_opt: Optional[int] = None,
    ) -> None:
        pkt = Packet(
            src=self.node.name,
            dst=self.peer,
            sport=self.local_port,
            dport=self.peer_port,
            proto=TCP,
            payload_len=payload,
            seq=self.snd_nxt if seq is None else seq,
            ack=self.rcv_nxt,
            flags=flags,
            wnd=max(0, self.recv_capacity),
            sack=self._sack_blocks(),
            ts_val=self.sim.now,
            ts_ecr=self._ts_recent,
            mss_opt=mss_opt,
            wscale_opt=wscale_opt,
            created_at=self.sim.now,
            retx=retx,
            app_tag=self._app_tag,
        )
        self.node.send(pkt)

    def _sack_blocks(self) -> Tuple[Tuple[int, int], ...]:
        """Merge out-of-order data into at most MAX_SACK_BLOCKS blocks."""
        if not self._ooo:
            return ()
        spans = sorted(self._ooo.items())
        blocks: List[Tuple[int, int]] = []
        start, length = spans[0]
        end = start + length
        for seq, seg_len in spans[1:]:
            if seq <= end:
                end = max(end, seq + seg_len)
            else:
                blocks.append((start, end))
                start, end = seq, seq + seg_len
        blocks.append((start, end))
        return tuple(blocks[-MAX_SACK_BLOCKS:])

    def _on_packet(self, pkt: Packet) -> None:
        if self.closed:
            return
        if pkt.is_syn and pkt.is_ack:
            self._handle_synack(pkt)
            return
        if pkt.is_syn:
            # Duplicate SYN from peer (our SYN+ACK was lost): resend it.
            if self.state in ("SYN_RCVD", "ESTABLISHED"):
                self._transmit(flags=SYN | ACK, mss_opt=self.mss, wscale_opt=self.wscale)
            return
        if self.state == "SYN_RCVD" and pkt.is_ack:
            self._establish()
        if pkt.is_ack:
            self._handle_ack(pkt)
        if pkt.payload_len > 0 or pkt.is_fin:
            self._handle_data(pkt)

    def _handle_synack(self, pkt: Packet) -> None:
        if self.state != "SYN_SENT":
            return
        self._cancel_rto()
        self.peer_mss = pkt.mss_opt or self.mss
        self.mss = min(self.mss, self.peer_mss)
        self.cwnd = INITIAL_CWND_SEGMENTS * self.mss
        self.peer_rwnd = pkt.wnd
        self.rcv_nxt = pkt.seq + 1
        self.snd_una = self.snd_nxt = 1  # SYN consumed one sequence number
        self._take_rtt_sample(self.sim.now - self._syn_time)
        self._transmit(flags=ACK)
        self._establish()

    def _establish(self) -> None:
        if self.state == "ESTABLISHED":
            return
        prev = self.state
        self.state = "ESTABLISHED"
        if prev == "SYN_RCVD":
            self._cancel_rto()
            self.snd_una = self.snd_nxt = 1
        if self.on_established:
            self.on_established()
        self._try_send()

    # ---------------------------------------------------------------- sending

    def pipe_size(self) -> int:
        """Public alias of the SACK pipe estimate (used by CC modules)."""
        return self._pipe()

    def _pipe(self) -> int:
        """Estimate of bytes currently in flight (SACK pipe)."""
        return self._pipe_bytes

    def _usable_window(self) -> int:
        window = self.peer_rwnd
        if window < self.mss:
            window = self.mss
        if self.cwnd < window:
            window = self.cwnd
        usable = window - self._pipe_bytes
        return usable if usable > 0 else 0

    def _try_send(self) -> None:
        if self.state != "ESTABLISHED":
            return
        sent_any = False
        if self.in_recovery:
            sent_any |= self._sack_retransmit()
        while self._send_buffer > 0:
            usable = self._usable_window()
            if usable < min(self.mss, self._send_buffer):
                break
            chunk = min(self.mss, self._send_buffer, usable)
            seg = _Segment(self.snd_nxt, chunk, self.sim.now)
            self._segments[seg.seq] = seg
            self._seg_order.append(seg.seq)
            self._pipe_bytes += chunk
            self._transmit(payload=chunk, seq=seg.seq)
            self.snd_nxt += chunk
            self._send_buffer -= chunk
            sent_any = True
        if (
            self._fin_pending
            and not self._fin_sent
            and self._send_buffer == 0
            and self._usable_window() > 0
        ):
            seg = _Segment(self.snd_nxt, 0, self.sim.now, is_fin=True)
            self._segments[seg.seq] = seg
            self._seg_order.append(seg.seq)
            self._transmit(payload=0, seq=seg.seq, flags=FIN | ACK)
            self.snd_nxt += 1
            self._fin_sent = True
            sent_any = True
        if sent_any and self._rto_event is None:
            self._arm_rto()

    def _sack_retransmit(self) -> bool:
        """Retransmit scoreboard holes while the pipe allows (RFC 6675)."""
        sent = False
        highest_sacked = self._highest_sacked if self._sacked_total else 0
        if highest_sacked == 0:
            return False
        for seq in list(self._seg_order):
            seg = self._segments.get(seq)
            if seg is None or seg.sacked:
                continue
            if seg.retx_count > 0 and not self._retx_looks_lost(seg):
                continue
            if seg.end + DUPACK_THRESHOLD * self.mss > highest_sacked:
                break  # not yet judged lost
            if self._pipe_bytes + seg.length > self.cwnd:
                break
            self._retransmit_segment(seg)
            sent = True
        return sent

    def _retx_looks_lost(self, seg: _Segment) -> bool:
        """Heuristic lost-retransmission detection (saves an RTO)."""
        wait = 1.5 * (self.srtt or MIN_RTO)
        return self.sim.now - seg.tx_time > wait

    def _retransmit_segment(self, seg: _Segment) -> None:
        seg.retx_count += 1
        seg.tx_time = self.sim.now
        self.stat_retransmits += 1
        flags = (FIN | ACK) if seg.is_fin else ACK
        self._transmit(payload=seg.length, seq=seg.seq, flags=flags, retx=True)

    # ------------------------------------------------------------------- ACKs

    def _handle_ack(self, pkt: Packet) -> None:
        self.peer_rwnd = pkt.wnd
        ack = pkt.ack
        sack_advanced = self._apply_sack(pkt.sack)
        if ack > self.snd_una:
            newly_acked = ack - self.snd_una
            self.bytes_acked += newly_acked
            if pkt.ts_ecr > 0.0:
                self._take_rtt_sample(self.sim.now - pkt.ts_ecr)
            self._retire_segments(ack)
            self.snd_una = ack
            self.dupacks = 0
            if self.in_recovery:
                if ack >= self.recover:
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # Partial ack: keep recovering; retransmit the next hole.
                    first = self._first_unacked_segment()
                    if first is not None and not first.sacked and (
                        first.retx_count == 0 or self._retx_looks_lost(first)
                    ):
                        self._retransmit_segment(first)
            else:
                if self.cwnd < self.ssthresh:
                    self.cwnd += min(newly_acked, self.mss)
                else:
                    self.cc.on_ack(self, newly_acked)
            if self.snd_una == self.snd_nxt:
                self._cancel_rto()
                if self._fin_sent:
                    self._teardown_if_done()
            else:
                self._arm_rto(restart=True)
            self._try_send()
        elif ack == self.snd_una and self.flight_size > 0 and pkt.payload_len == 0:
            self.dupacks += 1
            lost = (
                self.dupacks >= DUPACK_THRESHOLD
                or self._sacked_bytes() >= DUPACK_THRESHOLD * self.mss
            )
            if lost and not self.in_recovery:
                self._enter_recovery()
            elif self.in_recovery and sack_advanced:
                self._try_send()

    def _apply_sack(self, blocks: Tuple[Tuple[int, int], ...]) -> bool:
        advanced = False
        for start, end in blocks:
            for seq in self._seg_order:
                seg = self._segments.get(seq)
                if seg is None or seg.sacked:
                    continue
                if seg.seq >= start and seg.end <= end:
                    seg.sacked = True
                    self._pipe_bytes -= seg.length
                    self._sacked_total += seg.length
                    if seg.end > self._highest_sacked:
                        self._highest_sacked = seg.end
                    advanced = True
                elif seg.seq >= end:
                    break
        return advanced

    def _sacked_bytes(self) -> int:
        return self._sacked_total

    def _first_unacked_segment(self) -> Optional[_Segment]:
        while self._seg_order:
            seg = self._segments.get(self._seg_order[0])
            if seg is not None:
                return seg
            self._seg_order.popleft()
        return None

    def _retire_segments(self, ack: int) -> None:
        while self._seg_order:
            seq = self._seg_order[0]
            seg = self._segments.get(seq)
            if seg is None:
                self._seg_order.popleft()
                continue
            if seg.end > ack:
                break
            self._seg_order.popleft()
            del self._segments[seq]
            if seg.sacked:
                self._sacked_total -= seg.length
            else:
                self._pipe_bytes -= seg.length

    def _enter_recovery(self) -> None:
        self.stat_fast_retransmits += 1
        self.ssthresh = self.cc.on_loss(self)
        self.cwnd = self.ssthresh
        self.recover = self.snd_nxt
        self.in_recovery = True
        first = self._first_unacked_segment()
        if first is not None and not first.sacked:
            self._retransmit_segment(first)
        self._try_send()

    # -------------------------------------------------------------------- RTO

    def _take_rtt_sample(self, rtt: float) -> None:
        self.stat_rtt_samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = min(MAX_RTO, max(MIN_RTO, self.srtt + 4.0 * self.rttvar))

    def _arm_rto(self, restart: bool = False) -> None:
        if self._rto_event is not None:
            if not restart:
                return
            self._rto_event.cancel()
        self._rto_event = self.sim.schedule(self.rto, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.snd_una == self.snd_nxt or self.closed:
            return
        self.stat_timeouts += 1
        self.ssthresh = self.cc.on_timeout(self)
        self.cwnd = self.mss
        self.in_recovery = False
        self.dupacks = 0
        # RTO implies the scoreboard may be stale (reneging-safe reset).
        for seg in self._segments.values():
            seg.sacked = False
            seg.retx_count = 0
        self._pipe_bytes += self._sacked_total
        self._sacked_total = 0
        self._highest_sacked = 0
        self.rto = min(MAX_RTO, self.rto * 2.0)
        first = self._first_unacked_segment()
        if first is not None:
            self._retransmit_segment(first)
        self._arm_rto()

    # -------------------------------------------------------------- receiving

    def _handle_data(self, pkt: Packet) -> None:
        seq = pkt.seq
        length = pkt.payload_len
        if pkt.is_fin:
            self._peer_fin_seq = seq + length
        if length > 0:
            if seq + length <= self.rcv_nxt:
                # Complete duplicate: immediately re-ack.
                self._send_ack(now=True)
                return
            if seq > self.rcv_nxt:
                self._ooo[seq] = max(self._ooo.get(seq, 0), length)
                self._send_ack(now=True)  # duplicate ACK signals the hole
                return
            # In-order (possibly partially duplicate) delivery.
            self._ts_recent = pkt.ts_val
            delivered = seq + length - self.rcv_nxt
            self.rcv_nxt = seq + length
            delivered += self._drain_ooo()
            self.bytes_delivered += delivered
            if self.on_data:
                self.on_data(delivered, self.sim.now)
            self._send_ack(now=False)
        if self._peer_fin_seq is not None and self.rcv_nxt >= self._peer_fin_seq:
            self.rcv_nxt = self._peer_fin_seq + 1
            self._send_ack(now=True)
            if self.on_close:
                self.on_close()
            self._teardown_if_done()
            return

    def _drain_ooo(self) -> int:
        drained = 0
        while self._ooo:
            seg = self._ooo.pop(self.rcv_nxt, None)
            if seg is None:
                # Handle overlap: any buffered segment starting below rcv_nxt.
                overlapping = [s for s in self._ooo if s < self.rcv_nxt]
                progressed = False
                for s in overlapping:
                    length = self._ooo.pop(s)
                    if s + length > self.rcv_nxt:
                        drained += s + length - self.rcv_nxt
                        self.rcv_nxt = s + length
                        progressed = True
                if not progressed:
                    break
            else:
                drained += seg
                self.rcv_nxt += seg
        return drained

    def _send_ack(self, now: bool) -> None:
        if now:
            self._flush_ack()
            return
        self._delack_pending += 1
        if self._delack_pending >= 2:
            self._flush_ack()
        elif self._delack_event is None:
            self._delack_event = self.sim.schedule(DELACK_TIMEOUT, self._flush_ack)

    def _flush_ack(self) -> None:
        if self.closed:
            return
        if self._delack_event is not None:
            self._delack_event.cancel()
            self._delack_event = None
        self._delack_pending = 0
        self._transmit(flags=ACK)

    # ---------------------------------------------------------------- teardown

    def _teardown_if_done(self) -> None:
        sender_done = self._fin_sent and self.snd_una == self.snd_nxt
        receiver_done = (
            self._peer_fin_seq is not None and self.rcv_nxt > self._peer_fin_seq
        )
        if sender_done and receiver_done:
            self._teardown()

    def _teardown(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.state = "CLOSED"
        self._cancel_rto()
        if self._delack_event is not None:
            self._delack_event.cancel()
            self._delack_event = None
        self.node.unbind(TCP, self.local_port, self.peer, self.peer_port)


class TcpServer:
    """Listening socket: spawns a :class:`TcpEndpoint` per inbound SYN."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        port: int,
        on_connection: Callable[[TcpEndpoint], None],
        mss: int = 1460,
        recv_capacity: int = 262144,
        cc: str = "cubic",
    ):
        self.sim = sim
        self.node = node
        self.port = port
        self.on_connection = on_connection
        self.mss = mss
        self.recv_capacity = recv_capacity
        self.cc_name = cc
        self.connections: list[TcpEndpoint] = []
        node.bind(TCP, port, self._on_syn)

    def _on_syn(self, pkt: Packet) -> None:
        if not pkt.is_syn or pkt.is_ack:
            return
        endpoint = TcpEndpoint(
            self.sim,
            self.node,
            self.port,
            pkt.src,
            pkt.sport,
            mss=self.mss,
            recv_capacity=self.recv_capacity,
            cc=self.cc_name,
        )
        self.connections.append(endpoint)
        self.on_connection(endpoint)
        endpoint.accept_from_syn(pkt)

    def close(self) -> None:
        self.node.unbind(TCP, self.port)


def open_connection(
    sim: Simulator,
    client: Node,
    server: str,
    server_port: int,
    mss: int = 1460,
    recv_capacity: int = 262144,
    cc: str = "cubic",
) -> TcpEndpoint:
    """Create a client endpoint bound to an ephemeral port (not yet connected)."""
    return TcpEndpoint(
        sim,
        client,
        client.ephemeral_port(),
        server,
        server_port,
        mss=mss,
        recv_capacity=recv_capacity,
        cc=cc,
    )
