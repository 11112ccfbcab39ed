"""Unit tests for the UDP layer."""

import pytest

from repro.net import UDPStack
from repro.core.checksum import payload_checksum
from repro.sim import Host, Link, Simulator


def make_pair():
    sim = Simulator()
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    ab = Link(sim, 1e6, 0.001)
    ba = Link(sim, 1e6, 0.001)
    ab.connect(b.receive)
    ba.connect(a.receive)
    a.add_route("10.0.0.2", ab)
    b.add_route("10.0.0.1", ba)
    return sim, UDPStack(sim, a), UDPStack(sim, b)


def test_datagram_roundtrip():
    sim, stack_a, stack_b = make_pair()
    received = []
    sock_b = stack_b.socket(5000)
    sock_b.on_receive = lambda src, port, data: received.append(
        (src, port, data))
    sock_a = stack_a.socket()
    sock_a.sendto(b"hello", "10.0.0.2", 5000)
    sim.run()
    assert received == [("10.0.0.1", sock_a.port, b"hello")]


def test_unbound_port_silently_dropped():
    sim, stack_a, stack_b = make_pair()
    sock_a = stack_a.socket()
    sock_a.sendto(b"hello", "10.0.0.2", 4242)
    sim.run()  # nothing to assert beyond "no crash"


def test_duplicate_bind_rejected():
    sim, stack_a, _ = make_pair()
    stack_a.socket(7000)
    with pytest.raises(ValueError):
        stack_a.socket(7000)


def test_ephemeral_ports_distinct():
    sim, stack_a, _ = make_pair()
    assert stack_a.socket().port != stack_a.socket().port


def test_corrupted_datagram_dropped():
    sim = Simulator()
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    link = Link(sim, 1e6, 0.001)
    a.add_route("10.0.0.2", link)
    stack_a, stack_b = UDPStack(sim, a), UDPStack(sim, b)
    got = []
    sock = stack_b.socket(5000)
    sock.on_receive = lambda *args: got.append(args)

    def corrupt_then_deliver(pkt):
        pkt.udp.data = b"X" + pkt.udp.data[1:]
        b.receive(pkt)

    link.connect(corrupt_then_deliver)
    stack_a.socket().sendto(b"payload-bytes", "10.0.0.2", 5000)
    sim.run()
    assert got == []
    assert sock.checksum_drops == 1


def test_checksum_helpers():
    data = b"anything at all"
    checksum = payload_checksum(data)
    assert payload_checksum(data) == checksum
    assert payload_checksum(data + b"x") != checksum
