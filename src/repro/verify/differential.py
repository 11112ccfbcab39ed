"""Differential runner: paired executions that must agree.

Three comparisons, each a pair of runs differing in exactly one choice
production actually makes and that must be behaviour-preserving:

* **sweep parallelism** — the same sweep executed serially and on a
  process pool must produce equal ``TransferResult.to_dict()`` lists
  cell-for-cell (the engine's bit-identical-aggregation contract).
* **resilience layer** — arming epochs/heartbeats/resync under *zero
  faults* must not change the delivered stream (the epoch stamp rides
  in the shim; heartbeats share the bottleneck but cannot perturb
  correctness).
* **sharded vs unsharded** — the serving cache against the transfer
  cache.  One FIFO shard *is* a :class:`ByteCache` (same wire bytes,
  under a budget that evicts); eight shards evict different payloads,
  so the wire may differ but the delivered stream may not.

Each comparison returns a :class:`DifferentialResult`; ``repro verify``
runs all of them and exits non-zero on any mismatch.  The polynomial
fingerprinter against the GF(2) Rabin reference is a test
(``tests/test_rabin.py``), since the reference lives with the tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..app.transfer import TransferOutcome
from ..core.cache import ByteCache
from ..core.shardcache import ShardedByteCache
from ..experiments.config import ExperimentConfig
from ..experiments.runner import FILE_NAME, Fetch, build_testbed, run_fetches
from ..workload.corpus import corpus_object


@dataclass
class DifferentialResult:
    """Outcome of one paired comparison."""

    name: str
    matched: bool
    detail: str
    left_digest: str = ""
    right_digest: str = ""

    def __str__(self) -> str:
        status = "ok" if self.matched else "MISMATCH"
        return f"{self.name}: {status} — {self.detail}"


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def run_captured(config: ExperimentConfig) -> Tuple[TransferOutcome, bytes]:
    """One transfer, capturing the delivered application stream."""
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    chunks: List[bytes] = []
    run = run_fetches(build_testbed(config), config, {FILE_NAME: data},
                      [Fetch()],
                      on_data=lambda _index, chunk: chunks.append(chunk))
    return run.outcomes[0], b"".join(chunks)


def compare_sweep_parallelism(losses: Tuple[float, ...] = (0.0, 0.02),
                              policies: Tuple[str, ...] = ("cache_flush",
                                                           "tcp_seq"),
                              file_size: int = 30 * 1460,
                              seed: int = 11,
                              workers: int = 2) -> DifferentialResult:
    """Serial vs process-pool sweep: cell results must be equal dicts."""
    from ..experiments.sweep import SweepSpec, run_sweep

    def spec() -> SweepSpec:
        return SweepSpec(
            base=ExperimentConfig(file_size=file_size),
            grid={"policy": list(policies), "loss_rate": list(losses)},
            seeds=(seed,), paired_baseline=True)

    serial = run_sweep(spec(), workers=None)
    parallel = run_sweep(spec(), workers=workers)
    serial_cells = [cell.result.to_dict() for cell in serial]
    parallel_cells = [cell.result.to_dict() for cell in parallel]
    matched = serial_cells == parallel_cells
    mismatches = sum(1 for left, right in zip(serial_cells, parallel_cells)
                     if left != right)
    detail = (f"{len(serial_cells)} cells bit-identical across "
              f"serial and {workers}-worker runs" if matched else
              f"{mismatches}/{len(serial_cells)} cells differ between "
              f"serial and parallel execution")
    return DifferentialResult(
        "sweep-parallelism", matched, detail,
        _digest(repr(serial_cells).encode()),
        _digest(repr(parallel_cells).encode()))


def compare_resilience(file_size: int = 40 * 1460,
                       policy: str = "cache_flush",
                       seed: int = 11) -> DifferentialResult:
    """Resilience on vs off, zero faults: same delivered stream."""
    base = ExperimentConfig(policy=policy, file_size=file_size,
                            loss_rate=0.0, seed=seed)
    source = corpus_object(base.corpus, base.file_size, base.corpus_seed)
    streams = {}
    for armed in (False, True):
        outcome, stream = run_captured(base.with_updates(resilience=armed))
        label = "resilience" if armed else "baseline"
        if not outcome.completed:
            return DifferentialResult(
                "resilience", False,
                f"{label} run did not complete "
                f"({outcome.bytes_received}/{outcome.expected_size} bytes)")
        streams[armed] = stream
    matched = (streams[False] == streams[True] == source)
    detail = (f"armed and unarmed runs delivered identical "
              f"{len(source):,}-byte streams under zero faults" if matched
              else "resilience layer changed the delivered stream")
    return DifferentialResult("resilience", matched, detail,
                              _digest(streams[False]),
                              _digest(streams[True]))


def _offline_packets(n_packets: int, mss: int = 1460) -> List[bytes]:
    """Three-phase workload (fresh / cold / warm) for offline passes.

    Mirrors the hot-path bench's regimes: incompressible traffic, a
    first corpus transfer, and a fully redundant repeat.
    """
    import random

    rnd = random.Random(0xBC)
    fresh = [rnd.randbytes(mss) for _ in range(max(1, n_packets // 2))]
    data = corpus_object("file1", seed=3)
    cold = [data[index: index + mss]
            for index in range(0, len(data), mss)][:n_packets]
    return fresh + cold + cold


def _offline_encode(packets: List[bytes], cache: ByteCache) -> List[bytes]:
    """Wire bytes of one offline encoder pass over ``packets``."""
    from ..core.encoder import ByteCachingEncoder
    from ..core.fingerprint import FingerprintScheme
    from ..core.policies import PacketMeta, make_policy_pair

    scheme = FingerprintScheme(window=16, zero_bits=4)
    policy, _ = make_policy_pair("naive")
    encoder = ByteCachingEncoder(scheme, cache, policy)
    metas = [PacketMeta(packet_id=counter, flow=("diff", 0),
                        tcp_seq=counter * 1460, counter=counter)
             for counter in range(len(packets))]
    return [encoder.encode(payload, meta).data
            for payload, meta in zip(packets, metas)]


def compare_sharding(n_packets: int = 96, file_size: int = 40 * 1460,
                     policy: str = "cache_flush",
                     seed: int = 11) -> DifferentialResult:
    """ShardedByteCache vs ByteCache: one FIFO shard byte-identical on
    the wire, eight shards byte-identical at the application."""
    packets = _offline_packets(n_packets)
    budget = 32 * 1460          # a third of the cold phase: both evict
    plain = _offline_encode(packets, ByteCache(budget))
    one_shard = _offline_encode(
        packets, ShardedByteCache(budget, n_shards=1, eviction="fifo"))
    left, right = _digest(b"".join(plain)), _digest(b"".join(one_shard))
    if plain != one_shard:
        mismatches = sum(1 for a, b in zip(plain, one_shard) if a != b)
        return DifferentialResult(
            "sharded-vs-unsharded", False,
            f"{mismatches}/{len(packets)} packets differ between ByteCache "
            f"and one FIFO shard", left, right)
    base = ExperimentConfig(policy=policy, file_size=file_size,
                            loss_rate=0.0, seed=seed)
    source = corpus_object(base.corpus, base.file_size, base.corpus_seed)
    streams = {}
    for shards in (0, 8):
        outcome, stream = run_captured(base.with_updates(cache_shards=shards))
        if not outcome.completed:
            return DifferentialResult(
                "sharded-vs-unsharded", False,
                f"cache_shards={shards} run did not complete "
                f"({outcome.bytes_received}/{outcome.expected_size} bytes)",
                left, right)
        streams[shards] = stream
    matched = (streams[0] == streams[8] == source)
    detail = (f"one FIFO shard byte-identical to ByteCache over "
              f"{len(packets)} packets; 8 shards delivered the identical "
              f"{len(source):,}-byte stream (= source object)" if matched
              else "8-shard cache changed the delivered stream")
    return DifferentialResult("sharded-vs-unsharded", matched, detail,
                              _digest(streams[0]), _digest(streams[8]))


def run_differential(scale: str = "smoke",
                     log: Optional[Callable[[str], None]] = None
                     ) -> List[DifferentialResult]:
    """All three comparisons; ``scale`` picks the workload size.

    ``smoke`` uses small objects (seconds, used by the test suite);
    ``headline`` uses the paper-scale object of the headline scenario
    for the resilience and sharding pairs and a wider sweep grid (the
    CI ``verify-smoke`` job).
    """
    if scale not in ("smoke", "headline"):
        raise ValueError(f"unknown scale {scale!r}")
    if scale == "headline":
        # file1's corpus default is the paper's ~574 KB object: the
        # CI-sized configuration, not the test-sized one.
        pairs = dict(file_size=0)
        sweep = dict(losses=(0.0, 0.02, 0.05), file_size=60 * 1460)
        offline = dict(n_packets=384)
    else:
        pairs = dict(file_size=40 * 1460)
        sweep = dict(losses=(0.0, 0.02), file_size=30 * 1460)
        offline = dict(n_packets=96)

    results = []
    for runner in (
            lambda: compare_sweep_parallelism(**sweep),
            lambda: compare_resilience(**pairs),
            lambda: compare_sharding(**offline, **pairs)):
        result = runner()
        if log is not None:
            log(str(result))
        results.append(result)
    return results
