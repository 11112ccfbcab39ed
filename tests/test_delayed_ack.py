"""Tests for RFC 1122 delayed ACKs."""

import random

import pytest

from repro.net.tcp import TCPConfig, TCPSegment, TCPState

from tests.tcp_helpers import TcpTestbed, drop_data_segments


def payload(n, seed=0):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


def ack_count(testbed):
    return sum(1 for pkt in testbed.c2s.delivered
               if pkt.tcp is not None and not pkt.tcp.data
               and not pkt.tcp.syn)


def test_delayed_acks_halve_the_ack_stream():
    data = payload(40 * 1460)
    immediate = TcpTestbed(config=TCPConfig(delayed_ack=False))
    immediate.serve_bytes(data)
    conn, received, _ = immediate.fetch()
    immediate.sim.run(until=30)
    assert bytes(received) == data
    immediate_acks = ack_count(immediate)

    delayed = TcpTestbed(config=TCPConfig(delayed_ack=True))
    delayed.serve_bytes(data)
    conn, received, _ = delayed.fetch()
    delayed.sim.run(until=30)
    assert bytes(received) == data
    delayed_acks = ack_count(delayed)

    assert delayed_acks < 0.75 * immediate_acks


def test_delayed_ack_timer_bounds_latency():
    """A lone segment (no second one to trigger the every-2 rule) must
    still be ACKed within the delayed-ACK timeout."""
    testbed = TcpTestbed(config=TCPConfig(delayed_ack=True))
    testbed.serve_bytes(b"tiny")
    conn, received, events = testbed.fetch()
    testbed.sim.run(until=5)
    assert bytes(received) == b"tiny"
    assert "eof" in events


def test_dup_acks_still_immediate_under_loss():
    """Loss recovery must not be slowed: out-of-order segments generate
    immediate duplicate ACKs even with delayed ACKs on."""
    testbed = TcpTestbed(config=TCPConfig(delayed_ack=True),
                         drop_s2c=drop_data_segments(3 * 1460))
    data = payload(30 * 1460, seed=1)
    testbed.serve_bytes(data)
    conn, received, _ = testbed.fetch()
    testbed.sim.run(until=30)
    assert bytes(received) == data
    server_conn = testbed.server_stack.connections()[0]
    assert server_conn.stats.timeouts == 0  # fast retransmit worked


def test_transfer_with_dre_and_delayed_acks():
    from repro.experiments import ExperimentConfig

    config = ExperimentConfig(policy="cache_flush", file_size=60 * 1460,
                              seed=5, loss_rate=0.02, verify_content=True,
                              time_limit=120.0)
    config = config.with_updates()
    # Wire delayed acks through a custom TCP config.
    tcp = config.tcp_config()
    tcp.delayed_ack = True
    from repro.experiments.runner import (FILE_NAME, Fetch, build_testbed,
                                          run_fetches)
    from repro.workload.corpus import corpus_object

    testbed = build_testbed(config)
    # Replace stacks' config for both endpoints.
    testbed.client_stack.config.delayed_ack = True
    testbed.server_stack.config.delayed_ack = True
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    outcome = run_fetches(testbed, config, {FILE_NAME: data},
                          [Fetch()]).outcomes[0]
    assert outcome.completed
    assert outcome.content_ok is True


def _client_owing_a_delayed_ack():
    """A client that has taken one lone segment and not yet ACKed it."""
    testbed = TcpTestbed(config=TCPConfig(delayed_ack=True))
    testbed.server_stack.listen(
        80, lambda conn: setattr(conn, "on_receive",
                                 lambda _request: conn.send(b"lone segment")))
    conn, received, _ = testbed.fetch()
    testbed.sim.run(until=0.02)
    assert bytes(received) == b"lone segment"
    assert conn._delack_pending == 1 and conn._delack_timer.armed
    return testbed, conn


@pytest.mark.parametrize("how", ["abort", "reset"])
def test_closed_connection_sends_no_delayed_ack(how):
    """The delayed-ACK timer dies with the connection: nothing leaves a
    DONE/ABORTED endpoint, not even the bare ACK it still owed."""
    testbed, conn = _client_owing_a_delayed_ack()
    if how == "abort":
        conn.abort()
    else:
        conn.segment_arrived(TCPSegment(
            src_port=80, dst_port=conn.local_port, seq=0, ack=0,
            flags=TCPSegment.RST, window=0))
    assert conn.state is TCPState.ABORTED
    offered = testbed.c2s.offered
    testbed.sim.run(until=1.0)
    assert testbed.c2s.offered == offered
    assert conn._delack_pending == 0 and not conn._delack_timer.armed
