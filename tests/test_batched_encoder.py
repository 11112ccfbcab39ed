"""Per-packet encoder core: ``force_raw`` and result pooling.

(The file and class names predate the removal of the whole-window
``encode_batch`` path; what remains here drives ``encode()``.)
"""

import random

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


def _encode_all(encoder, packets, **kwargs):
    return [encoder.encode(p, m, **kwargs)
            for p, m in zip(packets, _metas(len(packets)))]


class TestEncodeBatchParity:
    def test_force_raw_disables_fused_path_but_still_caches(self):
        packets = _mixed_packets(8)
        encoder = _encoder("naive")
        results = _encode_all(encoder, packets, force_raw=True)
        assert all(not r.encoded for r in results)
        # Cache Update still ran: a second (non-raw) pass over the same
        # bytes should now find everything.
        repeat = _encode_all(encoder, packets)
        assert all(r.encoded for r in repeat)


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
        for result in _encode_all(encoder, packets):
            pool.release(result)
        again = _encode_all(encoder, packets)
        assert pool.reused > 0
        assert len(again) == len(packets)


def test_gateway_pool_roundtrip_preserves_dependency_log():
    """The middlebox releases shells, but logged dependency sets survive."""
    from repro.experiments import ExperimentConfig
    from repro.experiments.runner import run_transfer

    result = run_transfer(ExperimentConfig(file_size=30 * MSS,
                                           policy="naive", seed=11))
    assert result.completed
