"""Tests for the file-transfer application."""

import random

from repro.app.transfer import FileClient, FileServer

from tests.tcp_helpers import TcpTestbed, drop_data_segments


def body(n=20000, seed=0):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


def build(drop_s2c=None):
    testbed = TcpTestbed(drop_s2c=drop_s2c)
    data = body()
    server = FileServer(testbed.server_stack, {"thing": data})
    client = FileClient(testbed.client_stack, testbed.sim)
    return testbed, server, client, data


def test_successful_fetch():
    testbed, server, client, data = build()
    done = []
    outcome = client.fetch("10.0.0.2", "thing", expected_size=len(data),
                           expected_content=data, on_done=done.append)
    testbed.sim.run(until=30)
    assert outcome.completed
    assert outcome.content_ok is True
    assert outcome.bytes_received == len(data)
    assert outcome.duration is not None and outcome.duration > 0
    assert outcome.first_byte_at is not None
    assert outcome.fraction_retrieved == 1.0
    assert done == [outcome]
    assert server.requests_served == 1


def test_unknown_file_closes_without_body():
    testbed, server, client, data = build()
    outcome = client.fetch("10.0.0.2", "missing", expected_size=100)
    testbed.sim.run(until=10)
    assert outcome.bytes_received == 0
    assert not outcome.completed
    assert server.requests_failed == 1


def test_fetch_under_loss_still_completes():
    drops = drop_data_segments(*[k * 1460 for k in (1, 4, 9)])
    testbed, server, client, data = build(drop_s2c=drops)
    outcome = client.fetch("10.0.0.2", "thing", expected_size=len(data),
                           expected_content=data)
    testbed.sim.run(until=60)
    assert outcome.completed
    assert outcome.content_ok is True


def test_request_split_across_segments():
    """The request line may arrive in pieces; the server must buffer."""
    testbed = TcpTestbed()
    data = body(5000, seed=1)
    server = FileServer(testbed.server_stack, {"split": data})
    received = bytearray()
    conn = testbed.client_stack.connect("10.0.0.2", 80)
    conn.on_receive = received.extend

    def send_in_pieces():
        conn.send(b"GET ")
        testbed.sim.after(0.05, lambda: conn.send(b"spl"))
        testbed.sim.after(0.10, lambda: conn.send(b"it\n"))

    conn.on_established = send_in_pieces
    testbed.sim.run(until=10)
    assert bytes(received) == data


def test_add_file_after_startup():
    """The server looks a name up per request, so a file added to its
    mapping after it started listening is served."""
    testbed = TcpTestbed()
    files = {}
    FileServer(testbed.server_stack, files)
    files["late"] = b"late-bytes"
    client = FileClient(testbed.client_stack, testbed.sim)
    outcome = client.fetch("10.0.0.2", "late", expected_size=10)
    testbed.sim.run(until=10)
    assert outcome.completed


def test_multiple_sequential_fetches():
    testbed = TcpTestbed()
    data = body(8000, seed=2)
    FileServer(testbed.server_stack, {"x": data})
    client = FileClient(testbed.client_stack, testbed.sim)
    finished = []

    def on_done(outcome):
        finished.append(outcome)
        if len(finished) == 1:
            client.fetch("10.0.0.2", "x", expected_size=len(data),
                         on_done=on_done)

    client.fetch("10.0.0.2", "x", expected_size=len(data), on_done=on_done)
    testbed.sim.run(until=30)
    assert len(finished) == 2
    assert all(outcome.completed for outcome in finished)
