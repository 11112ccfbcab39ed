"""Edge-case coverage across the core and gateway layers."""

import random

import pytest

from repro.core import (ByteCache, ByteCachingDecoder, ByteCachingEncoder,
                        FingerprintScheme)
from repro.core.policies import (DecoderPolicy, NaivePolicy,
                                 PacketMeta)
from repro.core.checksum import payload_checksum

FLOW = ("s", 80, "c", 5000)


def pair(**scheme_kwargs):
    scheme = FingerprintScheme(**scheme_kwargs)
    return (ByteCachingEncoder(scheme, ByteCache(), NaivePolicy()),
            ByteCachingDecoder(scheme, ByteCache(), DecoderPolicy()))


def roundtrip(encoder, decoder, payload, index=0):
    meta = PacketMeta(packet_id=index, flow=FLOW, tcp_seq=index * 1460,
                      counter=index)
    result = encoder.encode(payload, meta)
    outcome = decoder.decode(result.data, meta,
                             checksum=payload_checksum(payload))
    assert outcome.ok
    assert outcome.payload == payload
    return result


class TestTinyPayloads:
    def test_empty_payload(self):
        encoder, decoder = pair()
        result = roundtrip(encoder, decoder, b"")
        assert not result.encoded
        assert result.bytes_out == 2  # shim only

    def test_single_byte(self):
        encoder, decoder = pair()
        roundtrip(encoder, decoder, b"x")

    def test_below_window_size(self):
        encoder, decoder = pair()
        roundtrip(encoder, decoder, b"a" * 15)   # window is 16

    def test_exactly_window_size(self):
        encoder, decoder = pair()
        roundtrip(encoder, decoder, bytes(range(16)))

    def test_repeated_tiny_payloads_never_encoded(self):
        """Payloads shorter than min_region_length can never produce a
        worthwhile region."""
        encoder, decoder = pair()
        blob = b"0123456789abcd"  # 14 bytes == FIELD_SIZE
        for index in range(5):
            result = roundtrip(encoder, decoder, blob, index)
            assert not result.encoded


class TestSamplingDensities:
    def test_zero_bits_zero_selects_every_offset(self):
        encoder, decoder = pair(zero_bits=0)
        rng = random.Random(0)
        base = rng.randbytes(800)
        roundtrip(encoder, decoder, base, 0)
        result = roundtrip(encoder, decoder, base, 1)
        assert result.encoded

    def test_sparse_sampling_still_roundtrips(self):
        encoder, decoder = pair(zero_bits=8)
        rng = random.Random(1)
        base = rng.randbytes(1460)
        roundtrip(encoder, decoder, base, 0)
        roundtrip(encoder, decoder, base, 1)

    def test_wide_window(self):
        encoder, decoder = pair(window=64)
        rng = random.Random(2)
        base = rng.randbytes(1460)
        roundtrip(encoder, decoder, base, 0)
        result = roundtrip(encoder, decoder, base, 1)
        assert result.encoded


class TestHighlyRepetitivePayloads:
    def test_all_zero_payload(self):
        encoder, decoder = pair()
        zero = bytes(1460)
        roundtrip(encoder, decoder, zero, 0)
        result = roundtrip(encoder, decoder, zero, 1)
        # Constant content: every window has the same fingerprint; the
        # second copy must still reconstruct exactly.
        assert result.bytes_out <= result.bytes_in + 2

    def test_periodic_payload(self):
        encoder, decoder = pair()
        periodic = b"abcdefgh" * 180
        roundtrip(encoder, decoder, periodic, 0)
        roundtrip(encoder, decoder, periodic, 1)

    def test_internal_self_similarity(self):
        """A payload repeating its own first half: regions may only
        reference *cached* packets, never the packet itself."""
        encoder, decoder = pair()
        rng = random.Random(3)
        half = rng.randbytes(730)
        roundtrip(encoder, decoder, half + half, 0)


class TestOracleArmedBoundaries:
    """§III-B's ``len > 14`` region floor and degenerate payloads, with
    the verification oracles armed — the edge geometry must neither
    corrupt bytes nor trip a safety oracle."""

    @staticmethod
    def _armed_pair(policy_name, **scheme_kwargs):
        from repro.core.policies import make_policy_pair
        from repro.verify import VerificationHarness

        scheme = FingerprintScheme(**scheme_kwargs)
        enc_policy, dec_policy = make_policy_pair(policy_name)
        encoder = ByteCachingEncoder(scheme, ByteCache(), enc_policy)
        decoder = ByteCachingDecoder(scheme, ByteCache(), dec_policy)
        harness = VerificationHarness()
        harness.attach_cores(encoder, decoder)
        return encoder, decoder, harness

    @pytest.mark.parametrize("policy", ["cache_flush", "tcp_seq",
                                        "k_distance"])
    def test_zero_length_payloads_with_oracles(self, policy):
        encoder, decoder, harness = self._armed_pair(policy)
        for index in range(3):
            meta = PacketMeta(packet_id=index, flow=FLOW,
                              tcp_seq=index * 1460, counter=index)
            result = encoder.encode(b"", meta)
            assert not result.encoded
            outcome = decoder.decode(result.data, meta,
                                     checksum=payload_checksum(b""))
            assert outcome.ok and outcome.payload == b""
        assert harness.violations == 0

    def _boundary_roundtrip(self, shared):
        """Ship a payload sharing exactly ``len(shared)`` bytes with a
        cached packet; returns how many regions reached the oracles.

        The harness's ``on_region`` hook fires at the region finder,
        *before* the encoder's whole-packet net-loss veto, so
        ``regions_checked`` observes the §III-B length floor exactly
        (a 15-byte region may clear the floor yet still ship raw
        because one encoding field does not pay for itself).
        """
        # window=8 < 14 so sub-floor matches are constructible;
        # zero_bits=0 anchors every offset so the shared run is found.
        encoder, decoder, harness = self._armed_pair(
            "tcp_seq", window=8, zero_bits=0)
        stored = b"\xf0" * 20 + shared + b"\xf1" * 20
        fresh = b"\xf2" * 20 + shared + b"\xf3" * 20
        for index, payload in enumerate((stored, fresh)):
            meta = PacketMeta(packet_id=index, flow=FLOW,
                              tcp_seq=index * 1460, counter=index)
            result = encoder.encode(payload, meta)
            outcome = decoder.decode(result.data, meta,
                                     checksum=payload_checksum(payload))
            assert outcome.ok and outcome.payload == payload
        assert harness.violations == 0
        return harness.regions_checked

    def test_at_or_below_region_floor_never_found(self):
        """§III-B line B.8 encodes only when a region beats the 14-byte
        encoding field; the implementation floor is
        ``MIN_REGION_LENGTH = FIELD_SIZE + 1`` with a ``<=`` guard, so
        14- and 15-byte shared runs must never reach the region stream."""
        assert self._boundary_roundtrip(bytes(range(1, 15))) == 0   # == FIELD_SIZE
        assert self._boundary_roundtrip(bytes(range(1, 16))) == 0   # == floor

    def test_first_length_past_floor_is_found(self):
        """One byte past the floor the region is found and judged by
        the oracles — and the payload still reconstructs exactly."""
        assert self._boundary_roundtrip(bytes(range(1, 17))) == 1


class TestGatewayAccounting:
    def test_wire_tag_charges_options_bytes(self):
        from repro import ExperimentConfig
        from repro.core.checksum import payload_checksum as cksum
        from repro.experiments.runner import build_gateways
        from repro.net.packet import IPPacket, PROTO_TCP, TCPSegment
        from repro.sim import Simulator

        sim = Simulator()
        gateways = build_gateways(sim, ExperimentConfig(policy="ack_gated"))

        class Sink:
            def __init__(self):
                self.packets = []

            def send(self, pkt):
                self.packets.append(pkt)

        sink = Sink()
        gateways.encoder.set_default_route(sink)
        data = random.Random(4).randbytes(1000)
        segment = TCPSegment(src_port=80, dst_port=5000, seq=0, ack=0,
                             flags=TCPSegment.ACK, window=100, data=data,
                             checksum=cksum(data))
        pkt = IPPacket(src="10.0.2.1", dst="10.0.1.1", proto=PROTO_TCP,
                       payload=segment)
        before_header = segment.header_size
        gateways.encoder.receive(pkt)
        out = sink.packets[0]
        assert out.tcp.dre_wire_tag is not None
        assert out.tcp.header_size == before_header + 4
