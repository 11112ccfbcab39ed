"""Flows sharing one gateway cache: interleaving, flush, resync.

The serving refactor replaced the one-transfer ByteCache with a shared
sharded cache that many concurrent flows feed simultaneously.  These
regressions pin the behaviours that a latent single-cache assumption
would break: interleaved inserts from different flows, a flush landing
mid-transfer on *both* gateways (the cache_flush policy does exactly
this per retransmission), and epoch bumps (resync) leaving the shared
state coherent for every flow, not just the one that triggered them.
"""

from repro.core.shardcache import ShardedByteCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.multiflow import run_concurrent_fetches
from repro.experiments.runner import (FILE_NAME, Fetch, build_testbed,
                                      run_fetches)
from repro.workload.corpus import corpus_object
from tests.reference_cache import DictByteCache

FPS = [(i * 2654435761 % (1 << 36)) << 4 for i in range(1, 9)]


# ---------------------------------------------------------------------------
# end-to-end: concurrent flows through one sharded cache
# ---------------------------------------------------------------------------

def test_concurrent_flows_share_sharded_cache_under_loss():
    """Three flows interleave in one sharded cache, with loss.

    Under the cache_flush policy every retransmission flushes both
    caches mid-run, so this exercises the interleaved flush path as a
    matter of course — all flows must still finish with intact content.
    """
    config = ExperimentConfig(file_size=60_000, cache_shards=4,
                              cache_eviction="lru", loss_rate=0.02,
                              seed=5, time_limit=120.0)
    result = run_concurrent_fetches(config, n_clients=3)
    assert len(result.outcomes) == 3
    assert result.all_completed
    assert all(outcome.content_ok for outcome in result.outcomes)


def test_sharded_cache_saves_bytes_across_flows():
    """Inter-flow redundancy (§I) survives the sharded cache: later
    flows ride earlier flows' cached bytes on a clean link."""
    config = ExperimentConfig(file_size=60_000, cache_shards=4,
                              cache_eviction="lru", seed=5,
                              time_limit=120.0)
    shared = run_concurrent_fetches(config, n_clients=3)
    solo = run_concurrent_fetches(config, n_clients=1)
    assert shared.all_completed and solo.all_completed
    # Three flows through the shared cache must cost well under three
    # times one flow — otherwise flows are not actually sharing.
    assert shared.bytes_on_link < 2.5 * solo.bytes_on_link


def _run_two_flows(flush_times=(), bump_times=()):
    """Two concurrent fetches with flushes/epoch bumps injected mid-run."""
    config = ExperimentConfig(file_size=60_000, cache_shards=4,
                              cache_eviction="lru", seed=9,
                              time_limit=120.0, verify_content=True)
    testbed = build_testbed(config)
    sim = testbed.sim
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    encoder = testbed.gateways.encoder
    decoder = testbed.gateways.decoder

    def flush_both() -> None:
        # The cache_flush policy's move: both ends drop state together,
        # so neither can reference bytes the other no longer holds.
        encoder.cache.flush()
        decoder.cache.flush()

    def bump_both() -> None:
        encoder.cache.bump_epoch()
        decoder.cache.bump_epoch()

    for when in flush_times:
        sim.after(when, flush_both)
    for when in bump_times:
        sim.after(when, bump_both)

    run = run_fetches(testbed, config, {FILE_NAME: data},
                      [Fetch(at=0.002 * index) for index in range(2)])
    return testbed, run.outcomes


def test_interleaved_flush_mid_transfer_resyncs_both_flows():
    """Flushes landing mid-transfer stall neither flow.

    A single-cache assumption (per-flow cache, or flush clearing state
    another flow still references asymmetrically) would corrupt or
    wedge one of the transfers; symmetric flush only costs re-caching.
    """
    testbed, outcomes = _run_two_flows(flush_times=(0.05, 0.2))
    assert len(outcomes) == 2
    assert all(outcome.completed for outcome in outcomes)
    assert all(outcome.content_ok for outcome in outcomes)
    encoder_cache = testbed.gateways.encoder.cache
    decoder_cache = testbed.gateways.decoder.cache
    assert encoder_cache.flushes >= 2
    assert decoder_cache.flushes >= 2
    # Flush is not resync: epochs never moved.
    assert encoder_cache.epoch == 0
    assert decoder_cache.epoch == 0
    # The shared cache came out of the interleaving coherent.
    assert encoder_cache.check_invariants() == []
    assert decoder_cache.check_invariants() == []


def test_epoch_bump_mid_transfer_keeps_flows_alive():
    """A resync (epoch bump) on both gateways mid-run is survivable."""
    testbed, outcomes = _run_two_flows(bump_times=(0.05,))
    assert all(outcome.completed for outcome in outcomes)
    assert all(outcome.content_ok for outcome in outcomes)
    assert testbed.gateways.encoder.cache.epoch == 1
    assert testbed.gateways.decoder.cache.epoch == 1


# ---------------------------------------------------------------------------
# unit-level: the shared-cache semantics flows rely on
# ---------------------------------------------------------------------------

def test_flush_preserves_epoch_and_id_uniqueness_like_unsharded():
    sharded = ShardedByteCache(1 << 20, n_shards=4)
    plain = DictByteCache(1 << 20)
    for cache in (sharded, plain):
        first = cache.insert_packet(b"a" * 20, [(0, FPS[0])])
        cache.flush()
        assert cache.epoch == 0          # flush is NOT a resync
        assert cache.flushes == 1
        assert cache.lookup(FPS[0]) is None
        assert len(cache.store) == 0
        second = cache.insert_packet(b"b" * 20, [(0, FPS[1])])
        # Store ids survive flushes monotonically: a stale reference
        # from before the flush can never alias a new payload.
        assert second > first
        assert cache.bump_epoch() == 1
        assert cache.flushes == 1        # and resync is not a flush


def test_interleaved_flows_share_and_replace_entries():
    """Two flow identities interleave inserts into one shared cache."""
    cache = ShardedByteCache(1 << 20, n_shards=4)
    flow_a = ("10.0.0.1", 1111)
    flow_b = ("10.0.0.2", 2222)
    sid_a = cache.insert_packet(b"A" * 30, [(0, FPS[0]), (8, FPS[1])],
                                flow=flow_a)
    sid_b = cache.insert_packet(b"B" * 30, [(0, FPS[2])], flow=flow_b)
    # Flow B re-advertising A's fingerprint displaces, not corrupts:
    # the newest entry wins, the displaced one stays reachable one
    # generation back (lookup_previous), exactly as in ByteCache.
    sid_b2 = cache.insert_packet(b"C" * 30, [(0, FPS[0])], flow=flow_b)
    entry, payload = cache.lookup(FPS[0])
    assert payload == b"C" * 30 and entry.flow == flow_b
    prev_entry, prev_payload = cache.lookup_previous(FPS[0])
    assert prev_payload == b"A" * 30 and prev_entry.flow == flow_a
    # A's other anchor is untouched by B's traffic.
    assert cache.lookup(FPS[1])[1] == b"A" * 30
    assert cache.lookup(FPS[2])[1] == b"B" * 30
    assert len({sid_a, sid_b, sid_b2}) == 3
    assert cache.check_invariants() == []
