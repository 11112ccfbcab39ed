"""Batched encoder core: encode_batch parity and result pooling.

The whole-window path (:meth:`ByteCachingEncoder.encode_batch`) has a
fused fast loop that engages only under the permissive base policy
hooks; both the fused and the hook-dispatching variant must be
byte-identical to a per-packet ``encode`` loop.
"""

import random

import pytest

from repro.core.cache import ByteCache
from repro.core.encoder import (ByteCachingEncoder, EncodeResult,
                                EncodeResultPool)
from repro.core.fingerprint import FingerprintScheme
from repro.core.policies import PacketMeta, make_policy_pair
from repro.workload.corpus import corpus_object

MSS = 1460


def _mixed_packets(n=48):
    """Fresh + cold + warm traffic (the hot path's three regimes)."""
    rnd = random.Random(0xBC)
    fresh = [rnd.randbytes(MSS) for _ in range(n // 2)]
    data = corpus_object("file1", seed=3)
    cold = [data[i: i + MSS] for i in range(0, len(data), MSS)][:n]
    return fresh + cold + cold


def _metas(n):
    return [PacketMeta(packet_id=i, flow=("t", 0), tcp_seq=i * MSS,
                       counter=i) for i in range(n)]


def _encoder(policy_name="naive", **kwargs):
    scheme = FingerprintScheme(window=16, zero_bits=4)
    policy, _ = make_policy_pair(policy_name, **kwargs)
    return ByteCachingEncoder(scheme, ByteCache(1 << 24), policy)


def _per_packet_wire(policy_name, packets):
    encoder = _encoder(policy_name)
    return [encoder.encode(p, m).data
            for p, m in zip(packets, _metas(len(packets)))], encoder


def _batched_wire(policy_name, packets):
    encoder = _encoder(policy_name)
    results = encoder.encode_batch(packets, _metas(len(packets)))
    return [r.data for r in results], encoder


class TestEncodeBatchParity:
    def test_fused_path_matches_per_packet(self):
        # The naive policy keeps every base hook → fused loop engages.
        packets = _mixed_packets()
        per_packet, enc_a = _per_packet_wire("naive", packets)
        batched, enc_b = _batched_wire("naive", packets)
        assert per_packet == batched
        # Stats parity too: the fused loop flushes identical counters.
        for field in ("packets", "packets_encoded", "bytes_in",
                      "bytes_out", "regions", "matched_bytes",
                      "collisions"):
            assert getattr(enc_a.stats, field) == \
                getattr(enc_b.stats, field), field

    def test_hook_dispatching_path_matches_per_packet(self):
        # cache_flush overrides before_packet → encode_batch falls back
        # to the per-packet hook-dispatching loop.
        packets = _mixed_packets(24)
        per_packet, _ = _per_packet_wire("cache_flush", packets)
        batched, _ = _batched_wire("cache_flush", packets)
        assert per_packet == batched

    def test_force_raw_disables_fused_path_but_still_caches(self):
        packets = _mixed_packets(8)
        encoder = _encoder("naive")
        results = encoder.encode_batch(packets, _metas(len(packets)),
                                       force_raw=True)
        assert all(not r.encoded for r in results)
        # Cache Update still ran: a second (non-raw) pass over the same
        # bytes should now find everything.
        repeat = encoder.encode_batch(packets, _metas(len(packets)))
        assert all(r.encoded for r in repeat)

    def test_profiler_disables_fused_path_with_identical_output(self):
        from repro.metrics.profiling import StageProfiler

        packets = _mixed_packets(24)
        plain, _ = _batched_wire("naive", packets)
        encoder = _encoder("naive")
        encoder.profiler = StageProfiler()
        profiled = [r.data for r in
                    encoder.encode_batch(packets, _metas(len(packets)))]
        assert plain == profiled
        assert encoder.profiler.total("batch_fingerprint") > 0.0

    def test_empty_batch(self):
        encoder = _encoder("naive")
        assert encoder.encode_batch([], []) == []


class TestProbeSkip:
    """Kept under its old name; what it pinned (a prefilter bypass that
    must not change output) is now just batch-vs-scalar identity."""

    def test_bypass_never_changes_output(self):
        packets = _mixed_packets(32)
        reference, _ = _per_packet_wire("naive", packets)
        batched, _ = _batched_wire("naive", packets)
        assert batched == reference


class TestEncodeResultPool:
    def test_acquire_release_reuses_shells(self):
        pool = EncodeResultPool()
        first = pool.acquire(b"x", False, 1, 1, [], set(), True, 2)
        pool.release(first)
        second = pool.acquire(b"y", True, 2, 2, [], set(), True, 2)
        assert second is first
        assert second.data == b"y" and second.encoded
        assert pool.reused == 1

    def test_regions_and_dependencies_never_recycled(self):
        pool = EncodeResultPool()
        result = pool.acquire(b"x", True, 1, 1, [], {7}, True, 2)
        kept_deps = result.dependencies
        pool.release(result)
        fresh = pool.acquire(b"y", False, 1, 1, [], {9}, True, 2)
        # The released shell was reused, but the consumer's set object
        # was left alone — only the reference was replaced.
        assert kept_deps == {7}
        assert fresh.dependencies == {9}

    def test_pool_is_bounded(self):
        pool = EncodeResultPool()
        shells = [EncodeResult(data=b"", encoded=False, bytes_in=0,
                               bytes_out=0) for _ in range(100)]
        for shell in shells:
            pool.release(shell)
        assert len(pool._free) <= 64

    def test_encoder_uses_attached_pool(self):
        packets = _mixed_packets(16)
        encoder = _encoder("naive")
        pool = EncodeResultPool()
        encoder.result_pool = pool
        results = encoder.encode_batch(packets, _metas(len(packets)))
        for result in results:
            pool.release(result)
        again = encoder.encode_batch(packets, _metas(len(packets)))
        assert pool.reused > 0
        assert len(again) == len(packets)


def test_gateway_pool_roundtrip_preserves_dependency_log():
    """The middlebox releases shells, but logged dependency sets survive."""
    from repro.experiments import ExperimentConfig
    from repro.experiments.runner import run_transfer

    result = run_transfer(ExperimentConfig(file_size=30 * MSS,
                                           policy="naive", seed=11))
    assert result.completed
