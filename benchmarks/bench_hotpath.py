"""Hot-path microbenchmark: the per-packet encoder on a three-phase mix.

Each packet goes through :meth:`ByteCachingEncoder.encode`, as at a
gateway: anchors selected in one numpy pass over the payload, resolved
against the ring table's index in one C pass
(:mod:`repro.core.ringtable`), match boundaries located with
single-slice compares plus a big-endian-XOR diff.

This bench holds two things.  *What the pipeline emits*: the wire
output of the workload must hash to :data:`WIRE_SHA256`, read at the
commit before the candidate-bitmap prefilter was removed — where the
inlined copy of the original per-packet pipeline this file used to
carry still agreed with it byte for byte.  *How long it takes*:
``new_seconds`` and the per-stage seconds are appended to
``BENCH_hotpath.json`` for ``repro bench diff``.  There is no ratio
gate: whether a change is faster is decided end to end by
``benchmarks/e2e/run.py`` (see ``BENCHMARK.json``).

The workload is a three-phase traffic mix (fresh / cold transfer /
repeated transfer — see :func:`_packets`) covering the insert-heavy,
mixed, and hit-heavy regimes.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from typing import List, Optional

from conftest import print_report

from repro.core.cache import ByteCache
from repro.core.encoder import ByteCachingEncoder
from repro.core.fingerprint import FingerprintScheme, anchor_memo_clear
from repro.core.policies import PacketMeta, make_policy_pair
from repro.experiments.sweep import append_bench_history
from repro.metrics.profiling import StageProfiler
from repro.workload.corpus import corpus_object

MSS = 1460
PACKETS = 192
ROUNDS = 9
#: sha256 over ``len(data) as 4 big-endian bytes + data`` of every
#: packet's wire output, in order (480 packets, 299,142 wire bytes).
WIRE_SHA256 = ("fe6c372e88692c38e3bf690f17d83ca6"
               "4a0b198c77712d6bf4bc22b6457c39f6")
WIRE_BYTES = 299_142


def _encode_pass(scheme: FingerprintScheme, packets: List[bytes],
                 profiler: Optional[StageProfiler] = None,
                 out: Optional[List[bytes]] = None) -> int:
    # Every pass starts cold: the memo is process-wide, and an earlier
    # pass (or bench) would otherwise have fingerprinted these packets.
    anchor_memo_clear()
    cache = ByteCache(16 * 1024 * 1024)
    policy, _ = make_policy_pair("naive")
    encoder = ByteCachingEncoder(scheme, cache, policy)
    encoder.profiler = profiler
    total_out = 0
    for counter, payload in enumerate(packets):
        result = encoder.encode(payload, PacketMeta(
            packet_id=counter, flow=("bench", 0),
            tcp_seq=counter * MSS, counter=counter))
        total_out += result.bytes_out
        if out is not None:
            out.append(result.data)
    return total_out


def _packets() -> List[bytes]:
    """Three-phase workload covering the hot path's regimes.

    1. *fresh*: incompressible traffic — anchor selection and cache
       updates with (almost) no hits; every packet's resolve comes back
       all-miss.
    2. *cold*: a corpus object seen for the first time — intra-object
       redundancy; mixed hit/miss region finding.
    3. *warm*: the same object transferred again (the paper's repeated-
       download case) — near-total hits; stresses lookup + expansion.
    """
    rnd = random.Random(0xBC)
    fresh = [rnd.randbytes(MSS) for _ in range(PACKETS // 2)]
    data = corpus_object("file1", seed=3)
    cold = [data[i: i + MSS] for i in range(0, len(data), MSS)][:PACKETS]
    return fresh + cold + cold


def _wire_digest(wire: List[bytes]) -> str:
    digest = hashlib.sha256()
    for data in wire:
        digest.update(len(data).to_bytes(4, "big"))
        digest.update(data)
    return digest.hexdigest()


def test_hotpath_wire_bytes_and_timing(benchmark):
    scheme = FingerprintScheme(window=16, zero_bits=4)
    packets = _packets()

    wire: List[bytes] = []
    wire_bytes = _encode_pass(scheme, packets, out=wire)
    digest = _wire_digest(wire)

    _encode_pass(scheme, packets)   # warm allocators
    times: List[float] = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        _encode_pass(scheme, packets)
        times.append(time.perf_counter() - started)
    new_time = statistics.median(times)

    benchmark.pedantic(lambda: _encode_pass(scheme, packets),
                       rounds=3, iterations=1)

    profiler = StageProfiler()
    _encode_pass(scheme, packets, profiler=profiler)
    # Record the trajectory point before the assert so a run that
    # changed the wire bytes lands in the history too.
    append_bench_history({
        "schema": "bench_hotpath/v1",
        "name": "hotpath",
        "summary": {
            "new_seconds": new_time,
            "packets": len(packets),
            "rounds": ROUNDS,
            "wire_bytes": wire_bytes,
            "wire_sha256": digest,
        },
        "stages": profiler.as_dict(),
    }, "BENCH_hotpath.json")
    print_report(
        "Hot path — per-packet fingerprint + encode "
        f"({len(packets)} x {MSS} B packets, fresh/cold/warm mix)",
        f"current:    {new_time * 1e3:8.2f} ms (median of {ROUNDS})\n"
        f"wire bytes: {wire_bytes:8d}\n"
        f"sha256:     {digest}\n\n" + profiler.report())

    assert wire_bytes == WIRE_BYTES
    assert digest == WIRE_SHA256, (
        "the three-phase workload no longer encodes to the committed "
        "wire bytes — a codec behaviour change, not a timing matter")
