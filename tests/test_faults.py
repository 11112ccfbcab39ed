"""Tests for the deterministic fault-injection module."""

from repro.experiments import ExperimentConfig
from repro.experiments.runner import (FILE_NAME, Fetch, build_testbed,
                                      run_fetches)
from repro.net.packet import (ControlMessage, IPPacket, PROTO_DRE_CONTROL,
                              PROTO_TCP, TCPSegment)
from repro.sim.faults import (FaultInjector, match_control,
                              match_nth_control, match_nth_data)
from repro.workload.corpus import corpus_object

from tests.tcp_helpers import TcpTestbed, drop_data_segments, drop_indices


def control_packet(kind: str) -> IPPacket:
    return IPPacket(src="gw-a", dst="gw-b", proto=PROTO_DRE_CONTROL,
                    payload=ControlMessage(kind=kind, payload=[1]))


class TestPredicates:
    def test_drop_indices(self):
        predicate = drop_indices(0, 2)
        assert predicate(None, 0)
        assert not predicate(None, 1)
        assert predicate(None, 2)

    def test_match_nth_data_counts_only_data(self):
        from repro.net.packet import IPPacket, PROTO_TCP, TCPSegment

        predicate = match_nth_data(2)
        ack = IPPacket(src="a", dst="b", proto=PROTO_TCP,
                       payload=TCPSegment(src_port=1, dst_port=2, seq=0,
                                          ack=0, flags=TCPSegment.ACK,
                                          window=0))
        data1 = IPPacket(src="a", dst="b", proto=PROTO_TCP,
                         payload=TCPSegment(src_port=1, dst_port=2, seq=0,
                                            ack=0, flags=TCPSegment.ACK,
                                            window=0, data=b"x"))
        data2 = IPPacket(src="a", dst="b", proto=PROTO_TCP,
                         payload=TCPSegment(src_port=1, dst_port=2, seq=1,
                                            ack=0, flags=TCPSegment.ACK,
                                            window=0, data=b"y"))
        assert not predicate(ack, 0)
        assert not predicate(data1, 1)
        assert predicate(data2, 2)

    def test_match_control_filters_by_kind(self):
        predicate = match_control("heartbeat", "cache_resync")
        assert predicate(control_packet("heartbeat"), 0)
        assert predicate(control_packet("cache_resync"), 1)
        assert not predicate(control_packet("heartbeat_ack"), 2)
        data = IPPacket(src="a", dst="b", proto=PROTO_TCP,
                        payload=TCPSegment(src_port=1, dst_port=2, seq=0,
                                           ack=0, flags=TCPSegment.ACK,
                                           window=0, data=b"x"))
        assert not predicate(data, 3)

    def test_match_control_without_kinds_matches_all_control(self):
        predicate = match_control()
        assert predicate(control_packet("heartbeat"), 0)
        assert predicate(control_packet("cache_resync_ack"), 1)

    def test_match_nth_control_counts_per_kind(self):
        predicate = match_nth_control("heartbeat", 2)
        assert not predicate(control_packet("heartbeat"), 0)      # 1st
        assert not predicate(control_packet("heartbeat_ack"), 1)  # not counted
        assert predicate(control_packet("heartbeat"), 2)          # 2nd
        assert not predicate(control_packet("heartbeat"), 3)


class TestInjectorOnTestbed:
    def test_drop_single_segment_recovered_by_tcp(self):
        testbed = TcpTestbed()
        injector = FaultInjector(testbed.s2c)
        injector.drop_when(drop_data_segments(3 * 1460))
        import random

        rng = random.Random(0)
        data = bytes(rng.randrange(256) for _ in range(20 * 1460))
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=30)
        assert bytes(received) == data
        assert injector.log.dropped
        assert injector.log.events == 1

    def test_corrupt_segment_detected_by_checksum(self):
        testbed = TcpTestbed()
        injector = FaultInjector(testbed.s2c)
        injector.corrupt_when(match_nth_data(4))
        import random

        rng = random.Random(1)
        data = bytes(rng.randrange(256) for _ in range(20 * 1460))
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=30)
        assert bytes(received) == data
        assert injector.log.corrupted
        assert conn.stats.checksum_drops >= 1

    def test_delay_single_segment_reordered_and_delivered(self):
        testbed = TcpTestbed()
        injector = FaultInjector(testbed.s2c)
        injector.delay_when(match_nth_data(3), 0.2)
        import random

        rng = random.Random(2)
        data = bytes(rng.randrange(256) for _ in range(20 * 1460))
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=30)
        # Held back, not lost: the transfer still assembles in full.
        assert bytes(received) == data
        assert injector.log.delayed
        assert injector.log.dropped == []
        assert injector.log.events == 1

    def test_delay_rejects_negative(self):
        import pytest

        testbed = TcpTestbed()
        injector = FaultInjector(testbed.s2c)
        with pytest.raises(ValueError):
            injector.delay_when(match_nth_data(1), -0.5)


class TestInjectorOnFullTestbed:
    def test_single_forced_loss_stalls_naive(self):
        """The §IV experiment via the public fault-injection API."""
        config = ExperimentConfig(
            corpus="file1", file_size=40 * 1460, policy="naive", seed=2,
            tcp_max_retries=6, tcp_min_rto=0.05, tcp_max_rto=0.5,
            time_limit=120.0)
        testbed = build_testbed(config)
        injector = FaultInjector(testbed.bottleneck_forward)
        injector.drop_when(match_nth_data(5))
        data = corpus_object(config.corpus, config.file_size,
                             config.corpus_seed)
        outcome = run_fetches(testbed, config, {FILE_NAME: data},
                              [Fetch()]).outcomes[0]
        assert not outcome.completed
        assert injector.log.events == 1
