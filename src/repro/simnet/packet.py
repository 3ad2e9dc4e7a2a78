"""Packet and flow primitives.

Packets carry just enough header state for the passive probes to behave like
real ``tstat``: sequence/ack numbers, flags, the advertised receive window,
SACK blocks, timestamps, the MSS option on SYNs and a TTL.  Payload
*content* is never materialised — only byte counts — which keeps the
simulator fast while leaving every metric the paper uses observable on the
wire.

All derived fields (total size, flag booleans, the flow key) are computed
once at construction: a packet is immutable on the wire, and these fields
sit on the simulator's hottest path.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

TCP = 6
UDP = 17

IP_HEADER = 20
TCP_HEADER = 20
UDP_HEADER = 8

# TCP flag bits (subset).
FIN = 0x01
SYN = 0x02
RST = 0x04
ACK = 0x10

_packet_ids = itertools.count(1)


class FlowKey(NamedTuple):
    """Canonical 5-tuple identifying one flow direction."""

    src: str
    dst: str
    sport: int
    dport: int
    proto: int

    def reversed(self) -> "FlowKey":
        return FlowKey(self.dst, self.src, self.dport, self.sport, self.proto)

    def canonical(self) -> "FlowKey":
        """Direction-independent key (smaller endpoint first)."""
        if (self.src, self.sport) <= (self.dst, self.dport):
            return self
        return self.reversed()


class Packet:
    """A simulated IP packet with optional TCP/UDP header fields."""

    __slots__ = (
        "pkt_id",
        "src",
        "dst",
        "sport",
        "dport",
        "proto",
        "payload_len",
        "seq",
        "ack",
        "flags",
        "wnd",
        "sack",
        "ts_val",
        "ts_ecr",
        "mss_opt",
        "wscale_opt",
        "ttl",
        "created_at",
        "retx",
        "app_tag",
        "header_len",
        "size",
        "is_syn",
        "is_ack",
        "is_fin",
        "is_rst",
        "is_pure_ack",
        "flow_key",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        sport: int,
        dport: int,
        proto: int = TCP,
        payload_len: int = 0,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        wnd: int = 65535,
        sack: tuple = (),
        ts_val: float = 0.0,
        ts_ecr: float = 0.0,
        mss_opt: Optional[int] = None,
        wscale_opt: Optional[int] = None,
        ttl: int = 64,
        created_at: float = 0.0,
        retx: bool = False,
        app_tag: str = "",
        flow_key: Optional[FlowKey] = None,
    ):
        self.pkt_id = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.proto = proto
        self.payload_len = payload_len
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.wnd = wnd
        self.sack = sack
        self.ts_val = ts_val
        self.ts_ecr = ts_ecr
        self.mss_opt = mss_opt
        self.wscale_opt = wscale_opt
        self.ttl = ttl
        self.created_at = created_at
        self.retx = retx
        self.app_tag = app_tag

        # -- derived, precomputed (hot path) --
        if proto == TCP:
            options = 4 if mss_opt is not None else 0
            if sack:
                options += 2 + 8 * len(sack)
            self.header_len = IP_HEADER + TCP_HEADER + options
        elif proto == UDP:
            self.header_len = IP_HEADER + UDP_HEADER
        else:
            self.header_len = IP_HEADER
        self.size = self.header_len + payload_len
        self.is_syn = bool(flags & SYN)
        self.is_ack = bool(flags & ACK)
        self.is_fin = bool(flags & FIN)
        self.is_rst = bool(flags & RST)
        self.is_pure_ack = (
            proto == TCP
            and payload_len == 0
            and self.is_ack
            and not (flags & (SYN | FIN | RST))
        )
        # A source that emits many packets of one flow passes its key in
        # once-built form; it must equal the key built from the fields.
        self.flow_key = (
            FlowKey(src, dst, sport, dport, proto) if flow_key is None else flow_key
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        proto = {TCP: "TCP", UDP: "UDP"}.get(self.proto, str(self.proto))
        flags = "".join(
            name
            for bit, name in ((SYN, "S"), (ACK, "A"), (FIN, "F"), (RST, "R"))
            if self.flags & bit
        )
        return (
            f"Packet#{self.pkt_id}({proto} {self.src}:{self.sport}->"
            f"{self.dst}:{self.dport} seq={self.seq} ack={self.ack} "
            f"len={self.payload_len} [{flags}])"
        )
