"""Micro-benchmarks on the encoder itself (DESIGN.md §5 ablations).

Times the fingerprinter, the GF(2) Rabin test reference (run from the
repository root, so ``tests`` is importable) and the full encode pass,
and sweeps the sampling parameters (w, zero-bits) the paper fixes at
w=16, k=4 (§III-B).
"""

import pytest

from repro.core import (ByteCache, ByteCachingEncoder, FingerprintScheme,
                        PolyFingerprinter, anchor_memo_clear)
from repro.core.policies import NaivePolicy, PacketMeta
from repro.workload.corpus import corpus_object
from tests.reference_rabin import RabinFingerprinter

PACKET = corpus_object("file1", seed=3)[: 1460]
BULK = corpus_object("file1", seed=3)[: 64 * 1460]


def test_poly_fingerprint_throughput(benchmark):
    fingerprinter = PolyFingerprinter(16)
    result = benchmark(lambda: fingerprinter.anchors(PACKET, 0xF))
    assert result


def test_rabin_fingerprint_throughput(benchmark):
    fingerprinter = RabinFingerprinter(16)
    result = benchmark(lambda: fingerprinter.anchors(PACKET, 0xF))
    assert result


@pytest.mark.parametrize("zero_bits", [3, 4, 6])
def test_encode_pass_throughput(benchmark, zero_bits):
    """Full encode pass over 64 packets at different sampling densities."""
    scheme = FingerprintScheme(zero_bits=zero_bits)

    def run():
        anchor_memo_clear()     # every timed pass fingerprints afresh
        encoder = ByteCachingEncoder(scheme, ByteCache(), NaivePolicy())
        out = 0
        for index in range(0, len(BULK), 1460):
            block = BULK[index: index + 1460]
            meta = PacketMeta(packet_id=index, flow=("s", 0, "c", 1),
                              tcp_seq=index, counter=index // 1460)
            out += encoder.encode(block, meta).bytes_out
        return out

    total_out = benchmark(run)
    assert 0 < total_out <= len(BULK) + 2 * (len(BULK) // 1460 + 1)


@pytest.mark.parametrize("window", [8, 16, 32, 64])
def test_window_size_match_recall(benchmark, window):
    """Smaller w finds more (shorter) repeats; w=16 is the paper's pick."""
    scheme = FingerprintScheme(window=window)

    def run():
        anchor_memo_clear()
        encoder = ByteCachingEncoder(scheme, ByteCache(), NaivePolicy())
        saved = 0
        for index in range(0, len(BULK), 1460):
            block = BULK[index: index + 1460]
            meta = PacketMeta(packet_id=index, flow=("s", 0, "c", 1),
                              tcp_seq=index, counter=index // 1460)
            result = encoder.encode(block, meta)
            saved += result.bytes_in - result.bytes_out
        return saved

    saved = benchmark(run)
    assert saved > 0
