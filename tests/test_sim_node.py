"""Unit tests for nodes, hosts and static routing."""

import pytest

from repro.net.packet import IPPacket, PROTO_TCP, PROTO_UDP, TCPSegment
from repro.metrics.telemetry import FlightRecorder
from repro.sim import Host, Link, Middlebox, Node, Simulator


def make_packet(dst="10.0.0.2", proto=PROTO_TCP, ttl=64):
    segment = TCPSegment(src_port=1, dst_port=2, seq=0, ack=0,
                         flags=TCPSegment.ACK, window=0)
    return IPPacket(src="10.0.0.1", dst=dst, proto=proto,
                    payload=segment, ttl=ttl)


class SinkLink:
    """Link stand-in that records sends."""

    def __init__(self):
        self.sent = []

    def send(self, pkt):
        self.sent.append(pkt)


def test_node_forwards_via_route():
    sim = Simulator()
    node = Node(sim, "n1")
    sink = SinkLink()
    node.add_route("10.0.0.2", sink)
    node.receive(make_packet())
    assert len(sink.sent) == 1
    assert node.packets_forwarded == 1


def test_node_uses_default_route():
    sim = Simulator()
    node = Node(sim, "n1")
    sink = SinkLink()
    node.set_default_route(sink)
    node.receive(make_packet(dst="somewhere-else"))
    assert len(sink.sent) == 1


def test_specific_route_beats_default():
    sim = Simulator()
    node = Node(sim, "n1")
    specific, default = SinkLink(), SinkLink()
    node.add_route("10.0.0.2", specific)
    node.set_default_route(default)
    node.receive(make_packet())
    assert len(specific.sent) == 1
    assert len(default.sent) == 0


def test_no_route_drops():
    sim = Simulator()
    node = Node(sim, "n1")
    node.receive(make_packet())
    assert node.packets_dropped == 1


def test_ttl_expiry_drops():
    sim = Simulator()
    node = Node(sim, "n1")
    sink = SinkLink()
    node.set_default_route(sink)
    node.receive(make_packet(ttl=1))
    assert node.packets_dropped == 1
    assert sink.sent == []


def test_header_corrupt_packet_dropped_with_trace():
    sim = Simulator()
    node = Node(sim, "n1")
    node.recorder = FlightRecorder()
    node.set_default_route(SinkLink())
    pkt = make_packet()
    pkt.header_corrupt = True
    node.receive(pkt)
    assert node.packets_dropped == 1
    assert node.recorder.dump() == [
        {"time": 0.0, "source": "n1", "event": "drop_header_corrupt",
         "detail": {"packet_id": pkt.packet_id}}]


def test_host_dispatches_to_protocol_handler():
    sim = Simulator()
    host = Host(sim, "h", "10.0.0.2")
    seen = []
    host.register_protocol(PROTO_TCP, seen.append)
    host.receive(make_packet())
    assert len(seen) == 1


def test_host_forwards_packets_not_for_it():
    sim = Simulator()
    host = Host(sim, "h", "10.0.0.9")
    sink = SinkLink()
    host.set_default_route(sink)
    host.receive(make_packet(dst="10.0.0.2"))
    assert len(sink.sent) == 1


def test_host_drops_unknown_protocol():
    sim = Simulator()
    host = Host(sim, "h", "10.0.0.2")
    host.receive(make_packet(proto=PROTO_UDP))
    assert host.packets_dropped == 1


def test_host_duplicate_protocol_registration_rejected():
    sim = Simulator()
    host = Host(sim, "h", "10.0.0.2")
    host.register_protocol(PROTO_TCP, lambda pkt: None)
    with pytest.raises(ValueError):
        host.register_protocol(PROTO_TCP, lambda pkt: None)


def test_host_send_requires_route():
    sim = Simulator()
    host = Host(sim, "h", "10.0.0.1")
    with pytest.raises(RuntimeError):
        host.send(make_packet())


def test_host_send_stamps_creation_time():
    sim = Simulator()
    host = Host(sim, "h", "10.0.0.1")
    sink = SinkLink()
    host.set_default_route(sink)
    sim.at(2.5, host.send, make_packet())
    sim.run()
    assert sink.sent[0].created_at == 2.5


def test_middlebox_process_none_consumes_packet():
    sim = Simulator()

    class Dropper(Middlebox):
        def process(self, pkt):
            return None

    box = Dropper(sim, "mb")
    sink = SinkLink()
    box.set_default_route(sink)
    box.receive(make_packet())
    assert sink.sent == []


def test_middlebox_default_passthrough_forwards():
    sim = Simulator()
    box = Middlebox(sim, "mb")
    sink = SinkLink()
    box.set_default_route(sink)
    box.receive(make_packet())
    assert len(sink.sent) == 1


def test_end_to_end_host_link_host():
    sim = Simulator()
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    link = Link(sim, 1e6, 0.001)
    link.connect(b.receive)
    a.set_default_route(link)
    got = []
    b.register_protocol(PROTO_TCP, got.append)
    a.send(make_packet())
    sim.run()
    assert len(got) == 1
