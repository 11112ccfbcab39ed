"""Unit tests for the TCP stack (listen/connect/demux)."""

import pytest

from repro.net.tcp import TCPState

from tests.tcp_helpers import TcpTestbed


def test_listener_accepts_connection():
    testbed = TcpTestbed()
    accepted = []
    testbed.server_stack.listen(80, accepted.append)
    testbed.client_stack.connect("10.0.0.2", 80)
    testbed.sim.run(until=5)
    assert len(accepted) == 1
    assert accepted[0].state is TCPState.ESTABLISHED


def test_duplicate_listen_rejected():
    testbed = TcpTestbed()
    testbed.server_stack.listen(80, lambda conn: None)
    with pytest.raises(ValueError):
        testbed.server_stack.listen(80, lambda conn: None)


def test_unknown_port_syn_ignored():
    testbed = TcpTestbed()
    conn = testbed.client_stack.connect("10.0.0.2", 9999)
    testbed.sim.run(until=1)
    assert conn.state is TCPState.SYN_SENT  # still retrying, never answered


def test_ephemeral_ports_unique():
    testbed = TcpTestbed()
    testbed.server_stack.listen(80, lambda conn: None)
    a = testbed.client_stack.connect("10.0.0.2", 80)
    b = testbed.client_stack.connect("10.0.0.2", 80)
    assert a.local_port != b.local_port


def test_parallel_connections_demuxed():
    testbed = TcpTestbed()
    bodies = {}

    def accept(conn):
        def on_receive(data):
            conn.send(b"reply-to-" + data.strip())
            conn.close()
        conn.on_receive = on_receive

    testbed.server_stack.listen(80, accept)
    results = {}
    for name in (b"a", b"b", b"c"):
        conn = testbed.client_stack.connect("10.0.0.2", 80)
        buffer = bytearray()
        results[name] = buffer
        conn.on_established = (lambda c=conn, n=name: c.send(n + b"\n"))
        conn.on_receive = buffer.extend
    testbed.sim.run(until=10)
    assert bytes(results[b"a"]) == b"reply-to-a"
    assert bytes(results[b"b"]) == b"reply-to-b"
    assert bytes(results[b"c"]) == b"reply-to-c"


def test_connection_count_drops_on_release():
    testbed = TcpTestbed()
    testbed.server_stack.listen(80, lambda conn: None)
    stack = testbed.client_stack
    conn = stack.connect("10.0.0.2", 80)
    testbed.sim.run(until=2)
    assert stack.connection_count() == 1
    assert not stack.release(conn)          # still open: kept
    conn.abort("test")
    assert conn.state is TCPState.ABORTED
    assert stack.release(conn)
    assert stack.connection_count() == 0


def test_explicit_local_port():
    testbed = TcpTestbed()
    testbed.server_stack.listen(80, lambda conn: None)
    conn = testbed.client_stack.connect("10.0.0.2", 80, local_port=12345)
    assert conn.local_port == 12345
    with pytest.raises(ValueError):
        testbed.client_stack.connect("10.0.0.2", 80, local_port=12345)
