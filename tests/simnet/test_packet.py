"""Unit tests for packet primitives."""

from repro.simnet.engine import Simulator
from repro.simnet.node import Node
from repro.simnet.packet import (
    ACK,
    FIN,
    FlowKey,
    IP_HEADER,
    Packet,
    SYN,
    TCP,
    TCP_HEADER,
    UDP,
    UDP_HEADER,
)
from repro.simnet.udp import UdpSender


def make(**kw):
    base = dict(src="a", dst="b", sport=1000, dport=80)
    base.update(kw)
    return Packet(**base)


def test_tcp_size_includes_headers():
    pkt = make(proto=TCP, payload_len=100)
    assert pkt.size == IP_HEADER + TCP_HEADER + 100


def test_udp_size_includes_headers():
    pkt = make(proto=UDP, payload_len=100)
    assert pkt.size == IP_HEADER + UDP_HEADER + 100


def test_mss_option_adds_header_bytes():
    plain = make(proto=TCP)
    syn = make(proto=TCP, flags=SYN, mss_opt=1460)
    assert syn.header_len == plain.header_len + 4


def test_sack_blocks_add_header_bytes():
    pkt = make(proto=TCP, flags=ACK, sack=((0, 10), (20, 30)))
    plain = make(proto=TCP, flags=ACK)
    assert pkt.header_len == plain.header_len + 2 + 16


def test_flag_helpers():
    pkt = make(flags=SYN | ACK)
    assert pkt.is_syn and pkt.is_ack and not pkt.is_fin and not pkt.is_rst


def test_pure_ack_detection():
    assert make(flags=ACK).is_pure_ack
    assert not make(flags=ACK, payload_len=1).is_pure_ack
    assert not make(flags=ACK | FIN).is_pure_ack
    assert not make(flags=ACK | SYN).is_pure_ack


def test_packet_ids_unique():
    assert make().pkt_id != make().pkt_id


def test_flow_key_reversed():
    key = FlowKey("a", "b", 1, 2, TCP)
    assert key.reversed() == FlowKey("b", "a", 2, 1, TCP)
    assert key.reversed().reversed() == key


def test_flow_key_canonical_is_direction_independent():
    key = FlowKey("phone", "server", 40000, 80, TCP)
    assert key.canonical() == key.reversed().canonical()


def test_packet_flow_key_matches_fields():
    pkt = make(sport=1234, dport=80)
    assert pkt.flow_key == FlowKey("a", "b", 1234, 80, TCP)


def test_udp_sender_packet_matches_constructor():
    """A UdpSender datagram equals Packet(...) in every slot but pkt_id."""
    sim = Simulator(seed=1)
    node = Node(sim, "client")
    sent = []
    node.send = sent.append  # capture instead of routing
    sender = UdpSender(sim, node, "server", 5001, rate_bps=1e6, payload=700,
                       sport=4000, tag="voip")
    sender.start(at=0.25)
    sim.run(until=0.3)
    sender.stop()
    assert len(sent) > 2
    for pkt in sent:
        ref = Packet(src="client", dst="server", sport=4000, dport=5001,
                     proto=UDP, payload_len=700, created_at=pkt.created_at,
                     app_tag="voip")
        for slot in Packet.__slots__:
            if slot != "pkt_id":
                assert getattr(pkt, slot) == getattr(ref, slot), slot
        assert pkt.pkt_id != ref.pkt_id
        assert hash(pkt.flow_key) == hash(ref.flow_key)
    # one key object shared by the flow
    assert all(pkt.flow_key is sent[0].flow_key for pkt in sent)
    assert sent[0].created_at == 0.25
