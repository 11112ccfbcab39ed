"""Tests for the byte-caching gateway middleboxes."""

import dataclasses
import random

from repro import ExperimentConfig
from repro.experiments.runner import build_gateways
from repro.gateway.resilience import ResilienceConfig
from repro.core.checksum import payload_checksum
from repro.net.packet import (ControlMessage, IPPacket, PROTO_DRE_CONTROL,
                              PROTO_TCP, TCPSegment)
from repro.sim import Simulator

CLIENT = "10.0.1.1"
SERVER = "10.0.2.1"


class Sink:
    def __init__(self):
        self.packets = []

    def send(self, pkt):
        self.packets.append(pkt)


def data_packet(data: bytes, seq: int = 0) -> IPPacket:
    segment = TCPSegment(src_port=80, dst_port=5000, seq=seq, ack=0,
                         flags=TCPSegment.ACK, window=1000, data=data,
                         checksum=payload_checksum(data))
    return IPPacket(src=SERVER, dst=CLIENT, proto=PROTO_TCP, payload=segment)


def ack_packet(ack: int) -> IPPacket:
    segment = TCPSegment(src_port=5000, dst_port=80, seq=0, ack=ack,
                         flags=TCPSegment.ACK, window=1000)
    return IPPacket(src=CLIENT, dst=SERVER, proto=PROTO_TCP, payload=segment)


def make_pair(sim=None, policy="naive", spans=None, resilience=None,
              **policy_kwargs):
    sim = sim or Simulator()
    pair = build_gateways(sim, ExperimentConfig(
        policy=policy, policy_kwargs=policy_kwargs,
        resilience=resilience is not None,
        resilience_kwargs=(dataclasses.asdict(resilience)
                           if resilience is not None else {})))
    if spans is not None:
        pair.encoder.spans = pair.decoder.spans = spans
        pair.encoder.encoder.spans = pair.decoder.decoder.spans = spans
    enc_out, dec_out = Sink(), Sink()
    pair.encoder.set_default_route(enc_out)
    pair.decoder.set_default_route(dec_out)
    return sim, pair, enc_out, dec_out


def random_bytes(seed, n=1460):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


class TestEncodeDecodePath:
    def test_fresh_packet_passes_shimmed(self):
        sim, pair, enc_out, dec_out = make_pair()
        payload = random_bytes(1)
        pair.encoder.receive(data_packet(payload))
        pkt = enc_out.packets[0]
        assert pkt.tcp.dre_encoded
        pair.decoder.receive(pkt)
        out = dec_out.packets[0]
        assert out.tcp.data == payload
        assert not out.tcp.dre_encoded

    def test_repeated_packet_compressed_then_restored(self):
        sim, pair, enc_out, dec_out = make_pair()
        payload = random_bytes(2)
        for seq in (0, 1460):
            pair.encoder.receive(data_packet(payload, seq=seq))
        small = enc_out.packets[1]
        assert len(small.tcp.data) < 100
        for pkt in enc_out.packets:
            pair.decoder.receive(pkt)
        assert [p.tcp.data for p in dec_out.packets] == [payload, payload]
        assert pair.encoder.stats.encoded_packets == 1
        assert pair.decoder.stats.decoded_ok == 2

    def test_undecodable_packet_dropped_and_counted(self):
        """Lose the carrier packet: the dependent one must vanish at the
        decoder (§IV-A t3)."""
        sim, pair, enc_out, dec_out = make_pair()
        payload = random_bytes(3)
        pair.encoder.receive(data_packet(payload, seq=0))      # lost
        pair.encoder.receive(data_packet(payload, seq=1460))   # dependent
        dependent = enc_out.packets[1]
        pair.decoder.receive(dependent)
        assert dec_out.packets == []
        assert pair.decoder.stats.undecodable_dropped == 1

    def test_reverse_packets_pass_untouched(self):
        sim, pair, enc_out, dec_out = make_pair()
        pair.encoder.receive(ack_packet(1460))
        pkt = enc_out.packets[0]
        assert not pkt.tcp.dre_encoded

    def test_empty_segments_not_shimmed(self):
        sim, pair, enc_out, _ = make_pair()
        syn = IPPacket(src=SERVER, dst=CLIENT, proto=PROTO_TCP,
                       payload=TCPSegment(src_port=80, dst_port=5000, seq=0,
                                          ack=0, flags=TCPSegment.SYN,
                                          window=1000))
        pair.encoder.receive(syn)
        assert not enc_out.packets[0].tcp.dre_encoded

    def test_dependency_log_records_sources(self):
        # The dependency record is the encode span's encoded_against
        # links (read back by metrics.depgraph.graph_from_spans).
        from repro.metrics.depgraph import graph_from_spans
        from repro.metrics.spans import SpanRecorder

        recorder = SpanRecorder()
        sim, pair, enc_out, _ = make_pair(spans=recorder)
        payload = random_bytes(4)
        first = data_packet(payload, seq=0)
        pair.encoder.receive(first)
        second = data_packet(payload, seq=1460)
        pair.encoder.receive(second)
        graph, _lost = graph_from_spans(recorder.export())
        assert graph.edges[second.packet_id] == \
            {first.packet_id}

    def test_byte_accounting(self):
        sim, pair, enc_out, _ = make_pair()
        payload = random_bytes(5)
        pair.encoder.receive(data_packet(payload, seq=0))
        pair.encoder.receive(data_packet(payload, seq=1460))
        stats = pair.encoder.stats
        assert stats.data_packets == 2
        assert stats.bytes_after < stats.bytes_before


class TestTraceRecords:
    """The encode / drop records cost nothing unless a recorder listens."""

    def _run(self, recorder=None, note=None):
        sim, pair, enc_out, dec_out = make_pair()
        for gateway in (pair.encoder, pair.decoder):
            gateway.recorder = recorder
            if note is not None:
                gateway.note = note
        payload = random_bytes(6)
        for seq in (0, 1460, 2920):
            pair.encoder.receive(data_packet(payload, seq=seq))
        for pkt in enc_out.packets[1:]:     # carrier lost: two drops
            pair.decoder.receive(pkt)
        assert pair.encoder.stats.encoded_packets == 2
        assert pair.decoder.stats.undecodable_dropped == 2
        return enc_out.packets

    def test_disabled_tracer_without_sink_is_never_called(self):
        # No recorder: the guarded sites never build a record at all.
        def note(*args, **kwargs):
            raise AssertionError("note() reached on the disabled path")

        self._run(note=note)

    def test_sink_alone_still_receives_every_record(self):
        seen = []

        class Recorder:
            def record(self, time, source, event, detail):
                seen.append((event, detail))

        sent = self._run(Recorder())
        assert [event for event, _ in seen] == \
            ["encode", "encode", "drop_undecodable", "drop_undecodable"]
        assert seen[1][1]["deps"] == [sent[1].packet_id]
        assert seen[2][1]["missing"] == 1

    def test_enabled_tracer_records_as_before(self):
        from repro.metrics.telemetry import FlightRecorder

        recorder = FlightRecorder()
        self._run(recorder)
        rows = recorder.dump()
        assert [(row["source"], row["event"]) for row in rows] == [
            ("encoder-gw", "encode"), ("encoder-gw", "encode"),
            ("decoder-gw", "drop_undecodable"),
            ("decoder-gw", "drop_undecodable")]


class TestControlChannel:
    def _control(self, pair, kind, payload, dst=None):
        return IPPacket(src=pair.decoder.address,
                        dst=pair.encoder.address if dst is None else dst,
                        proto=PROTO_DRE_CONTROL,
                        payload=ControlMessage(kind=kind, payload=payload))

    def test_control_message_consumed_by_addressee(self):
        sim, pair, enc_out, dec_out = make_pair(policy="cache_flush")
        pair.encoder.receive(self._control(pair, "cache_resync", 1))
        assert enc_out.packets == []  # consumed, not forwarded
        assert pair.encoder.stats.control_messages_received == 1

    def test_control_message_forwarded_when_not_addressee(self):
        sim, pair, enc_out, dec_out = make_pair(policy="cache_flush")
        pair.encoder.receive(self._control(pair, "cache_resync", 1,
                                           dst="somewhere-else"))
        assert len(enc_out.packets) == 1
        assert pair.encoder.stats.control_messages_received == 0

    def test_unknown_kind_counted_and_dropped_without_resilience(self):
        sim, pair, enc_out, dec_out = make_pair(policy="cache_flush")
        pair.encoder.receive(data_packet(random_bytes(5)))
        cached = len(pair.encoder.cache.store)
        pair.encoder.receive(self._control(pair, "mark", [123]))
        assert pair.encoder.stats.control_messages_received == 1
        assert pair.encoder.stats.control_messages_sent == 0
        assert len(enc_out.packets) == 1          # the data packet only
        assert len(pair.encoder.cache.store) == cached

    def test_unknown_kind_counted_and_dropped_with_resilience(self):
        sim, pair, enc_out, dec_out = make_pair(
            policy="cache_flush", resilience=ResilienceConfig())
        decoder = pair.decoder
        control = self._control(pair, "mark", [123], dst=decoder.address)
        decoder.receive(control)
        assert decoder.stats.control_messages_received == 1
        assert decoder.stats.control_messages_sent == 0
        assert dec_out.packets == []
        # A resilience kind on the same path reaches the endpoint,
        # which answers it.
        decoder.receive(self._control(pair, "heartbeat", 1,
                                      dst=decoder.address))
        assert decoder.stats.control_messages_received == 2
        assert [p.payload.kind for p in dec_out.packets] == ["heartbeat_ack"]

    def test_decoder_miss_is_dropped_and_reported_nowhere(self):
        """An undecodable packet has one outcome: it is dropped (§IV-A
        t3); nothing is buffered and no message goes back."""
        sim, pair, enc_out, dec_out = make_pair(policy="naive")
        payload = random_bytes(7)
        pair.encoder.receive(data_packet(payload, seq=0))       # lost
        pair.encoder.receive(data_packet(payload, seq=1460))
        pair.decoder.receive(enc_out.packets[1])
        assert pair.decoder.stats.undecodable_dropped == 1
        assert pair.decoder.stats.control_messages_sent == 0
        assert dec_out.packets == []


class TestPolicyIntegration:
    def test_cache_flush_sends_retransmission_raw(self):
        sim, pair, enc_out, dec_out = make_pair(policy="cache_flush")
        payload = random_bytes(8)
        pair.encoder.receive(data_packet(payload, seq=0))
        pair.encoder.receive(data_packet(payload, seq=1460))
        pair.encoder.receive(data_packet(payload, seq=0))   # retransmission
        retransmission = enc_out.packets[2]
        # Raw (flush emptied the cache): full size + shim.
        assert len(retransmission.tcp.data) == len(payload) + 2
        pair.decoder.receive(retransmission)
        assert dec_out.packets[-1].tcp.data == payload

    def test_tcp_seq_never_references_future(self):
        sim, pair, enc_out, dec_out = make_pair(policy="tcp_seq")
        payload = random_bytes(9)
        pair.encoder.receive(data_packet(payload, seq=1460))
        pair.encoder.receive(data_packet(payload, seq=0))  # earlier seq
        second = enc_out.packets[1]
        assert len(second.tcp.data) == len(payload) + 2    # sent raw
        pair.decoder.receive(second)
        assert dec_out.packets[-1].tcp.data == payload

    def test_k_distance_references_every_k(self):
        sim, pair, enc_out, _ = make_pair(policy="k_distance", k=3)
        payload_a = random_bytes(10)
        for i in range(7):
            pair.encoder.receive(data_packet(payload_a, seq=i * 1460))
        sizes = [len(p.tcp.data) for p in enc_out.packets]
        # References at counters 0, 3 and 6 go out raw-sized.
        for reference_index in (0, 3, 6):
            assert sizes[reference_index] == len(payload_a) + 2
        # Non-reference duplicates are whole-payload matches, which
        # k-distance refuses (sent raw) — but partial matches compress;
        # counter 7 half-overlaps the counter-6 reference.
        payload_b = payload_a[:700] + random_bytes(11, 760)
        pair.encoder.receive(data_packet(payload_b, seq=7 * 1460))
        assert len(enc_out.packets[-1].tcp.data) < len(payload_b)


def test_naive_transfer_through_the_gateways_completes():
    from repro.experiments import ExperimentConfig
    from repro.experiments.runner import run_transfer

    result = run_transfer(ExperimentConfig(file_size=30 * 1460,
                                           policy="naive", seed=11))
    assert result.completed
