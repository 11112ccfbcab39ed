"""Behavioural tests for the TCP connection state machine."""

import random

import pytest

from repro.net.packet import TCPSegment
from repro.net.tcp import TCPConfig, TCPState
from repro.net.tcp.connection import SYN_RETRIES
from repro.net.tcp.timer import INITIAL_RTO

from tests.tcp_helpers import TcpTestbed, drop_data_segments, drop_indices


def payload_bytes(n, seed=0):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


class TestHandshakeAndTransfer:
    def test_clean_transfer(self):
        testbed = TcpTestbed()
        data = payload_bytes(50_000)
        testbed.serve_bytes(data)
        conn, received, events = testbed.fetch()
        testbed.sim.run(until=30)
        assert bytes(received) == data
        assert "eof" in events

    def test_handshake_establishes_both_sides(self):
        testbed = TcpTestbed()
        testbed.serve_bytes(b"x")
        conn, _, _ = testbed.fetch()
        testbed.sim.run(until=5)
        assert conn.state in (TCPState.ESTABLISHED, TCPState.FIN_SENT) \
            or conn.state is TCPState.ESTABLISHED
        server_conn = testbed.server_stack.connections()[0]
        assert server_conn.established_at is not None

    def test_syn_loss_recovered_by_retransmission(self):
        testbed = TcpTestbed(drop_c2s=drop_indices(0))  # drop first SYN
        data = payload_bytes(10_000)
        testbed.serve_bytes(data)
        conn, received, events = testbed.fetch()
        testbed.sim.run(until=30)
        assert bytes(received) == data

    def test_syn_ack_loss_recovered(self):
        testbed = TcpTestbed(drop_s2c=drop_indices(0))  # drop SYN-ACK
        data = payload_bytes(10_000)
        testbed.serve_bytes(data)
        conn, received, events = testbed.fetch()
        testbed.sim.run(until=30)
        assert bytes(received) == data

    def test_empty_body(self):
        testbed = TcpTestbed()
        testbed.serve_bytes(b"")
        conn, received, events = testbed.fetch()
        testbed.sim.run(until=10)
        assert bytes(received) == b""
        assert "eof" in events

    def test_segmentation_at_mss(self):
        testbed = TcpTestbed()
        data = payload_bytes(10 * 1460 + 7)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=30)
        sizes = [len(pkt.tcp.data) for pkt in testbed.s2c.delivered
                 if pkt.tcp and pkt.tcp.data]
        assert max(sizes) == 1460
        assert sizes.count(1460) >= 10
        assert bytes(received) == data


class TestLossRecovery:
    def test_single_data_loss_fast_retransmit(self):
        testbed = TcpTestbed(drop_s2c=drop_data_segments(5 * 1460))
        data = payload_bytes(40 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=60)
        assert bytes(received) == data
        server_conn = testbed.server_stack.connections()[0]
        assert server_conn.stats.retransmissions >= 1
        # Recovered via dup-acks/SACK, not a timeout.
        assert server_conn.stats.timeouts == 0

    def test_multiple_losses_in_one_window(self):
        seqs = [k * 1460 for k in (3, 5, 9, 12)]
        testbed = TcpTestbed(drop_s2c=drop_data_segments(*seqs))
        data = payload_bytes(40 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=60)
        assert bytes(received) == data

    def test_tail_loss_needs_rto(self):
        last_seq = 39 * 1460
        testbed = TcpTestbed(drop_s2c=drop_data_segments(last_seq))
        data = payload_bytes(40 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=60)
        assert bytes(received) == data
        server_conn = testbed.server_stack.connections()[0]
        assert server_conn.stats.timeouts >= 1

    def test_retransmission_keeps_mss_boundaries(self):
        """Retransmitted segments reuse the original packetisation —
        the property the byte caches rely on."""
        seqs = [k * 1460 for k in (2, 7)]
        testbed = TcpTestbed(drop_s2c=drop_data_segments(*seqs))
        data = payload_bytes(30 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=60)
        starts = {}
        for pkt in testbed.s2c.delivered:
            segment = pkt.tcp
            if segment and segment.data:
                starts.setdefault(segment.seq, set()).add(len(segment.data))
        assert all(len(lengths) == 1 for lengths in starts.values())
        assert bytes(received) == data

    def test_ack_loss_tolerated(self):
        # Drop a run of pure ACKs; cumulative ACKs cover the gap.
        def drop_acks(pkt, index):
            segment = pkt.tcp
            return (segment is not None and not segment.data
                    and not segment.flags & segment.SYN
                    and 5 <= index <= 12)

        testbed = TcpTestbed(drop_c2s=drop_acks)
        data = payload_bytes(40 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=60)
        assert bytes(received) == data

    def test_heavy_random_loss_both_directions(self):
        rng = random.Random(5)

        def lossy(pkt, index):
            return rng.random() < 0.1

        testbed = TcpTestbed(drop_s2c=lossy)
        data = payload_bytes(60 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=300)
        assert bytes(received) == data

    def test_reordering_tolerated(self):
        testbed = TcpTestbed()
        # Swap two data segments by delaying one at the link level.
        original_send = testbed.s2c.send
        held = []
        counter = {"data": 0}

        def reorder_send(pkt):
            segment = pkt.tcp
            if segment and segment.data:
                counter["data"] += 1
                if counter["data"] == 5 and not held:
                    held.append(pkt)
                    return
            original_send(pkt)
            if held and segment and segment.data and counter["data"] == 7:
                original_send(held.pop())

        testbed.s2c.send = reorder_send
        data = payload_bytes(30 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=60)
        assert bytes(received) == data


class TestLostRetransmission:
    """A retransmission that is lost too is found from the SACKs of the
    data sent after it, not left to the 200 ms RTO."""

    HOLE = 5 * 1460

    def run(self, testbed):
        data = payload_bytes(40 * 1460)
        testbed.serve_bytes(data)
        _conn, received, events = testbed.fetch()
        testbed.sim.run(until=60)
        assert bytes(received) == data
        return testbed.server_stack.connections()[0], events["eof"]

    @pytest.mark.parametrize("copies", [2, 3])
    def test_resent_within_the_episode(self, copies):
        testbed = TcpTestbed(
            drop_s2c=drop_data_segments(self.HOLE, copies=copies))
        server_conn, eof = self.run(testbed)
        assert server_conn.stats.timeouts == 0
        assert server_conn.stats.lost_retransmits == copies - 1
        assert server_conn.stats.retransmissions == copies
        assert eof < server_conn.config.min_rto

    def test_lost_tail_retransmission_still_needs_rto(self):
        # Nothing is sent after the last segment, so nothing can be
        # SACKed behind its lost retransmission.
        testbed = TcpTestbed(
            drop_s2c=drop_data_segments(39 * 1460, copies=2))
        server_conn, _eof = self.run(testbed)
        stats = server_conn.stats
        assert stats.lost_retransmits == 0
        assert stats.timeouts == 2
        assert (stats.timeouts_no_feedback,
                stats.timeouts_lost_retransmit) == (1, 1)

    def test_held_retransmission_costs_one_spurious_resend(self):
        """A retransmission overtaken by the data behind it looks lost:
        it is resent once, and the late copy is an ordinary duplicate."""
        testbed = TcpTestbed(drop_s2c=drop_data_segments(self.HOLE))
        original_send = testbed.s2c.send
        base = []
        held = []
        copies = {"hole": 0}

        def hold_first_retransmission(pkt):
            segment = pkt.tcp
            if segment and segment.data:
                if not base:
                    base.append(segment.seq)
                if segment.seq - base[0] == self.HOLE:
                    copies["hole"] += 1
                    if copies["hole"] == 2:
                        held.append(pkt)
                        return
            original_send(pkt)
            if held and copies["hole"] == 3:
                original_send(held.pop())

        testbed.s2c.send = hold_first_retransmission
        server_conn, eof = self.run(testbed)
        assert copies["hole"] == 3 and not held
        assert server_conn.stats.lost_retransmits == 1
        assert server_conn.stats.retransmissions == 2
        assert server_conn.stats.timeouts == 0
        assert server_conn.state is not TCPState.ABORTED
        assert eof < server_conn.config.min_rto


class TestStall:
    def test_persistent_loss_aborts_connection(self):
        """Every copy of one segment dropped — the §IV stall surface."""
        target = 5 * 1460
        testbed = TcpTestbed(
            drop_s2c=drop_data_segments(target, once=False),
            config=TCPConfig(max_retries=5, min_rto=0.05, max_rto=0.5))
        data = payload_bytes(30 * 1460)
        testbed.serve_bytes(data)
        conn, received, events = testbed.fetch()
        testbed.sim.run(until=120)
        server_conn = testbed.server_stack.connections()[0]
        assert server_conn.state is TCPState.ABORTED
        assert server_conn.close_reason == "stalled"
        assert len(received) < len(data)

    def test_handshake_to_a_silent_port_aborts_after_syn_retries(self):
        """Nobody listens: 1 + SYN_RETRIES SYNs, each timeout doubling
        the 1 s initial RTO up to max_rto (1+2+4+8+8+8+8 s)."""
        testbed = TcpTestbed()
        conn = testbed.client_stack.connect("10.0.0.2", 81)
        testbed.sim.run(until=120)
        syns = [pkt for pkt in testbed.c2s.delivered
                if pkt.tcp.flags & TCPSegment.SYN]
        assert (SYN_RETRIES, INITIAL_RTO, conn.config.max_rto) == (6, 1.0, 8.0)
        assert len(syns) == 7
        assert conn.stats.timeouts == 7
        assert conn.state is TCPState.ABORTED
        assert conn.close_reason == "stalled"
        assert conn.closed_at == 39.0

    def test_retry_counter_resets_on_progress(self):
        rng = random.Random(9)

        def lossy(pkt, index):
            return rng.random() < 0.15

        testbed = TcpTestbed(
            drop_s2c=lossy,
            config=TCPConfig(max_retries=8, min_rto=0.05, max_rto=1.0))
        data = payload_bytes(50 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=300)
        assert bytes(received) == data  # survives despite many timeouts


class TestChecksums:
    def test_corrupted_segment_dropped_and_recovered(self):
        corrupted = []
        counter = {"data": 0}

        def corrupt_one(pkt):
            segment = pkt.tcp
            if segment and segment.data:
                counter["data"] += 1
                if counter["data"] == 4 and not corrupted:
                    corrupted.append(True)
                    segment.data = b"\x00" * len(segment.data)  # bad checksum

        original_send = None
        testbed = TcpTestbed()
        original_send = testbed.s2c.send

        def send(pkt):
            corrupt_one(pkt)
            original_send(pkt)

        testbed.s2c.send = send
        data = payload_bytes(20 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=60)
        assert bytes(received) == data
        assert conn.stats.checksum_drops == 1


class TestFlowControl:
    def test_sender_respects_receive_window(self):
        config = TCPConfig(rwnd=8 * 1460)
        testbed = TcpTestbed(config=config)
        data = payload_bytes(80 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()

        max_flight = []

        def watch():
            conns = testbed.server_stack.connections()
            if conns:
                max_flight.append(conns[0].flight_size)
            testbed.sim.after(0.002, watch)

        testbed.sim.after(0.001, watch)
        testbed.sim.run(until=120)
        assert bytes(received) == data
        assert max(max_flight) <= config.rwnd + 1  # +1 for the FIN

    def test_window_ramp_is_slow_start(self):
        testbed = TcpTestbed()
        data = payload_bytes(60 * 1460)
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=60)
        server_conn = testbed.server_stack.connections()[0]
        assert server_conn.cc.stats.slow_start_acks > 0


class TestApiMisuse:
    def test_send_after_close_rejected(self):
        testbed = TcpTestbed()
        testbed.serve_bytes(b"abc")
        conn, _, _ = testbed.fetch()
        testbed.sim.run(until=5)
        conn.close()
        with pytest.raises(RuntimeError):
            conn.send(b"more")

    def test_connect_twice_rejected(self):
        testbed = TcpTestbed()
        testbed.serve_bytes(b"abc")
        conn, _, _ = testbed.fetch()
        with pytest.raises(RuntimeError):
            conn.connect()

    def test_abort_fires_on_close_once(self):
        testbed = TcpTestbed()
        testbed.serve_bytes(b"abc")
        conn, _, events = testbed.fetch()
        testbed.sim.run(until=1)
        conn.abort("because")
        conn.abort("again")
        assert events["close"] == "because"
