"""Tests for winnowing anchor selection and eviction-policy options."""

import random

import numpy as np
import pytest

from repro.core.cache import PacketStore
from repro.core.fingerprint import FingerprintScheme
from repro.core.winnowing import winnow_anchors, winnow_positions


class TestWinnowPositions:
    def test_empty(self):
        assert winnow_positions(np.array([], dtype=np.uint64), 4) == []

    def test_short_input_single_minimum(self):
        hashes = np.array([5, 3, 9], dtype=np.uint64)
        assert winnow_positions(hashes, 8) == [1]

    def test_every_window_covered(self):
        """The winnowing guarantee: no gap of >= window positions."""
        rng = np.random.default_rng(1)
        hashes = rng.integers(0, 1 << 60, 5000, dtype=np.uint64)
        window = 16
        positions = winnow_positions(hashes, window)
        assert positions == sorted(positions)
        gaps = np.diff([0] + positions + [len(hashes) - 1])
        assert gaps.max() <= window

    def test_selection_density_near_value_sampling(self):
        """With window 2^k, winnowing density ~ 2/(w+1) ≈ value
        sampling's 2^-k within a small factor."""
        rng = np.random.default_rng(2)
        hashes = rng.integers(0, 1 << 60, 20000, dtype=np.uint64)
        positions = winnow_positions(hashes, 16)
        density = len(positions) / len(hashes)
        assert 0.05 < density < 0.20

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        hashes = rng.integers(0, 1 << 60, 1000, dtype=np.uint64)
        assert winnow_positions(hashes, 8) == winnow_positions(hashes, 8)

    def test_winnow_anchors_list_form(self):
        fingerprints = [(i, (i * 7919) % 100) for i in range(50)]
        anchors = winnow_anchors(fingerprints, 8)
        assert anchors
        assert all(pair in fingerprints for pair in anchors)


class TestWinnowingScheme:
    def test_scheme_accepts_selection(self):
        scheme = FingerprintScheme(selection="winnowing")
        rng = random.Random(4)
        data = rng.randbytes(3000)
        anchors = scheme.anchors(data)
        assert anchors
        offsets = [off for off, _ in anchors]
        assert offsets == sorted(offsets)
        # Bounded gaps (the winnowing property), +window slack at edges.
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert max(gaps) <= 16

    def test_identical_selection_across_instances(self):
        rng = random.Random(5)
        data = rng.randbytes(2000)
        a = FingerprintScheme(selection="winnowing").anchors(data)
        b = FingerprintScheme(selection="winnowing").anchors(data)
        assert a == b

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError):
            FingerprintScheme(selection="magic")

    def test_rabin_backend_winnowing(self):
        rng = random.Random(6)
        data = rng.randbytes(1200)
        anchors = FingerprintScheme(kind="rabin",
                                    selection="winnowing").anchors(data)
        assert anchors

    def test_winnowing_roundtrips_through_encoder(self):
        from repro.core import (ByteCache, ByteCachingDecoder,
                                ByteCachingEncoder)
        from repro.core.policies import (DecoderPolicy, NaivePolicy,
                                         PacketMeta)
        from repro.core.checksum import payload_checksum

        scheme = FingerprintScheme(selection="winnowing")
        encoder = ByteCachingEncoder(scheme, ByteCache(), NaivePolicy())
        decoder = ByteCachingDecoder(scheme, ByteCache(), DecoderPolicy())
        rng = random.Random(7)
        base = rng.randbytes(1460)
        for index, payload in enumerate([base, base[:700] + rng.randbytes(760)]):
            meta = PacketMeta(packet_id=index, flow=("a", 1, "b", 2),
                              tcp_seq=index * 1460, counter=index)
            result = encoder.encode(payload, meta)
            decoded = decoder.decode(result.data, meta,
                                     checksum=payload_checksum(payload))
            assert decoded.ok and decoded.payload == payload
        assert encoder.stats.packets_encoded >= 1


class TestEvictionPolicies:
    def test_lru_keeps_hot_entries(self):
        store = PacketStore(byte_budget=300, eviction="lru")
        hot = store.add(b"a" * 100)
        cold = store.add(b"b" * 100)
        store.get(hot)                      # touch
        store.add(b"c" * 100)
        store.add(b"d" * 100)               # evicts the coldest
        assert hot in store
        assert cold not in store

    def test_fifo_ignores_touches(self):
        store = PacketStore(byte_budget=300, eviction="fifo")
        first = store.add(b"a" * 100)
        store.add(b"b" * 100)
        store.get(first)                    # touch is irrelevant
        store.add(b"c" * 100)
        store.add(b"d" * 100)
        assert first not in store

    def test_unknown_eviction_rejected(self):
        with pytest.raises(ValueError):
            PacketStore(eviction="random")

    def test_experiment_runs_with_lru_and_winnowing(self):
        """file1 through a winnowing, LRU gateway pair: every payload is
        encoded against the cache and restored byte for byte."""
        from repro.core.cache import ByteCache
        from repro.core.checksum import payload_checksum
        from repro.core.policies import make_policy_pair
        from repro.gateway import DecoderGateway, EncoderGateway
        from repro.net.packet import IPPacket, PROTO_TCP, TCPSegment
        from repro.sim import Simulator
        from repro.workload.corpus import corpus_object

        class Sink:
            def __init__(self):
                self.packets = []

            def send(self, pkt):
                self.packets.append(pkt)

        # Winnowing is a scheme option ExperimentConfig does not carry,
        # so the pair is wired by hand as build_gateways would.
        sim = Simulator()
        scheme = FingerprintScheme(selection="winnowing")
        enc_policy, dec_policy = make_policy_pair("cache_flush")
        encoder = EncoderGateway(sim, "encoder-gw", "10.255.0.1", scheme,
                                 ByteCache(eviction="lru"), enc_policy,
                                 data_dst="10.0.1.1")
        decoder = DecoderGateway(sim, "decoder-gw", "10.255.0.2", scheme,
                                 ByteCache(eviction="lru"), dec_policy,
                                 data_dst="10.0.1.1")
        encoder.set_peer(decoder.address)
        decoder.set_peer(encoder.address)
        enc_out, dec_out = Sink(), Sink()
        encoder.set_default_route(enc_out)
        decoder.set_default_route(dec_out)
        data = corpus_object("file1", 40 * 1460, 3)
        for seq in range(0, len(data), 1460):
            chunk = data[seq: seq + 1460]
            segment = TCPSegment(src_port=80, dst_port=5000, seq=seq, ack=0,
                                 flags=TCPSegment.ACK, window=1000,
                                 data=chunk, checksum=payload_checksum(chunk))
            encoder.receive(IPPacket(src="10.0.2.1", dst="10.0.1.1",
                                     proto=PROTO_TCP, payload=segment))
        for pkt in enc_out.packets:
            decoder.receive(pkt)
        assert encoder.stats.encoded_packets > 0
        assert b"".join(pkt.tcp.data for pkt in dec_out.packets) == data
