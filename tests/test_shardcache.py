"""ShardedByteCache: routing, budgets, and oracle parity.

The load-bearing property is the hypothesis parity test: in the
no-eviction regime a sharded cache — one shard, eight, any number —
must be observationally equivalent to one big reference
:class:`DictByteCache` (``tests/reference_cache.py``) for *any*
interleaving of inserts, lookups, markings and flushes, and one FIFO
shard must stay equivalent to :class:`ByteCache` under eviction too —
otherwise the serving refactor silently changed what the paper's
encoder/decoder see.  The unit tests pin the shard-local behaviours
the oracle cannot express: budget splitting, per-shard eviction,
admission, invariants.
"""

import random
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import ByteCache
from repro.core.encoder import ByteCachingEncoder, _SplitPairs
from repro.core.fingerprint import FingerprintScheme
from repro.core.policies import PacketMeta, make_policy_pair
from repro.core.shardcache import ShardedByteCache, shard_of
from repro.workload.corpus import corpus_object
from tests.reference_cache import DictByteCache

BIG = 1 << 30

# Value-selection anchors have their low zero_bits (4) bits zero —
# exactly the fingerprints a naive `fp % n` router would collapse.
FPS = [(i * 2654435761 % (1 << 36)) << 4 for i in range(1, 25)]


def make_caches(n_shards):
    """The dict-table oracle, then N=1, N=8 and N=n_shards sharded
    caches, all with unbounded budgets — pure parity."""
    return [DictByteCache(BIG)] + [
        ShardedByteCache(BIG, n_shards=n, eviction="fifo")
        for n in (1, 8, n_shards)]


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def test_shard_routing_spreads_low_bit_zero_fingerprints():
    for n in (2, 4, 8, 16):
        used = {shard_of(fp, n) for fp in FPS}
        assert len(used) > 1, f"all fingerprints collapsed with {n} shards"
        assert all(0 <= s < n for s in used)


def test_shard_routing_is_deterministic():
    assert [shard_of(fp, 8) for fp in FPS] == \
        [shard_of(fp, 8) for fp in FPS]


# ---------------------------------------------------------------------------
# oracle parity under arbitrary interleavings
# ---------------------------------------------------------------------------

fp_st = st.sampled_from(FPS)
op_st = st.one_of(
    st.tuples(st.just("insert"),
              st.binary(min_size=1, max_size=64),
              st.lists(st.tuples(st.integers(0, 48), fp_st), max_size=4)),
    st.tuples(st.just("lookup"), fp_st),
    st.tuples(st.just("previous"), fp_st),
    st.tuples(st.just("mark"), fp_st),
    st.tuples(st.just("flush")),
)


def _entry_view(hit):
    if hit is None:
        return None
    entry, payload = hit
    return (payload, entry.offset, entry.tcp_seq, entry.flow,
            entry.packet_counter)


def _apply(caches, op, counter):
    """Run one op on every cache; all must observe the same thing."""
    if op[0] == "insert":
        _, payload, anchors = op
        sids = [cache.insert_packet(payload, anchors, tcp_seq=counter,
                                    flow=("f", counter % 3),
                                    packet_counter=counter,
                                    external_id=counter)
                for cache in caches]
        seen = [(sid, cache.external_id_for(sid))
                for sid, cache in zip(sids, caches)]
    elif op[0] == "lookup":
        seen = []
        for cache in caches:
            view = cache.lookup_view(op[1])
            seen.append((_entry_view(cache.lookup(op[1])),
                         None if view is None else bytes(view)))
    elif op[0] == "previous":
        seen = [_entry_view(cache.lookup_previous(op[1]))
                for cache in caches]
    elif op[0] == "mark":
        seen = [cache.mark_unusable(op[1]) for cache in caches]
    else:
        for cache in caches:
            cache.flush()
        seen = [cache.flushes for cache in caches]
    assert all(view == seen[0] for view in seen), (op, seen)


def _run_ops(caches, ops):
    counter = 0
    for op in ops:
        _apply(caches, op, counter)
        counter += op[0] == "insert"
    # Aggregate views agree at the end of every interleaving.
    for attr in (lambda c: len(c.table), lambda c: len(c.store),
                 lambda c: c.store.bytes_used, lambda c: c.store.evictions,
                 lambda c: c.table.inserts, lambda c: c.table.replacements):
        assert len({attr(cache) for cache in caches}) == 1
    for fp in FPS:
        _apply(caches, ("lookup", fp), counter)


@given(ops=st.lists(op_st, max_size=60),
       n_shards=st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_sharded_cache_parity_with_unsharded_oracle(ops, n_shards):
    caches = make_caches(n_shards)
    _run_ops(caches, ops)
    for sharded in caches[1:]:
        assert sharded.check_invariants() == []
        # The vectorised routing behind the per-shard entry counts is
        # shard_of, key for key.
        owners = [shard_of(entry.fingerprint, sharded.n_shards)
                  for entry in sharded.table.entries()]
        assert sharded.shard_entries() == [
            owners.count(index) for index in range(sharded.n_shards)]


@given(ops=st.lists(op_st, max_size=80),
       budget=st.integers(64, 400))
@settings(max_examples=120, deadline=None)
def test_one_fifo_shard_parity_with_bytecache_under_eviction(ops, budget):
    # A budget of a few payloads: most interleavings evict, and the
    # dangling entries must be invalidated at the same lookups.
    plain = ByteCache(budget)
    sharded = ShardedByteCache(budget, n_shards=1, eviction="fifo")
    _run_ops([plain, sharded], ops)
    assert sharded.check_invariants() == []


# ---------------------------------------------------------------------------
# budgets / eviction / admission (beyond the oracle's reach)
# ---------------------------------------------------------------------------

def test_budget_splits_across_shards_and_bounds_hold():
    cache = ShardedByteCache(8_000, n_shards=4)
    for shard in cache.store.shards:
        assert shard.byte_budget == 2_000
    for i in range(200):
        cache.insert_packet(bytes(100), [(0, FPS[i % len(FPS)])])
    assert cache.store.bytes_used <= 8_000
    for shard in cache.store.shards:
        assert shard.bytes_used <= shard.byte_budget
    assert cache.store.evictions > 0
    assert cache.check_invariants() == []


def test_set_byte_budget_rescales_and_evicts():
    cache = ShardedByteCache(16_000, n_shards=4)
    for i in range(100):
        cache.insert_packet(bytes(120), [(0, FPS[i % len(FPS)])])
    evicted = cache.set_byte_budget(4_000)
    assert evicted > 0
    assert cache.byte_budget == 4_000
    for shard in cache.store.shards:
        assert shard.byte_budget == 1_000
        assert shard.bytes_used <= 1_000
    assert cache.check_invariants() == []


def test_evict_fraction_and_lazy_invalidation():
    cache = ShardedByteCache(BIG, n_shards=4)
    for i, fp in enumerate(FPS):
        cache.insert_packet(bytes([i]) * 50, [(0, fp)])
    before = len(cache.store)
    assert cache.evict_fraction(1.0) == before
    # Dangling table entries are invalidated lazily on lookup.
    for fp in FPS:
        assert cache.lookup(fp) is None
    assert len(cache.table) == 0
    with pytest.raises(ValueError):
        cache.evict_fraction(1.5)


def test_evict_fraction_counts_payloads_across_shards():
    # Eight shards holding one payload each: flooring per shard evicted
    # nothing, so the chaos `evict` fault was a no-op on a lightly
    # filled serving cache.  Same count as ByteCache, oldest id first.
    sharded = ShardedByteCache(BIG, n_shards=8, eviction="fifo")
    plain = ByteCache(BIG)
    fps = {}
    for fp in FPS:
        fps.setdefault(shard_of(fp, 8), fp)
    assert len(fps) == 8
    sids = []
    for fp in fps.values():
        plain.insert_packet(b"p" * 40, [(0, fp)])
        sids.append(sharded.insert_packet(b"p" * 40, [(0, fp)]))
    assert [len(shard) for shard in sharded.store.shards] == [1] * 8
    assert sharded.evict_fraction(0.5) == plain.evict_fraction(0.5) == 4
    assert sorted(sharded.store.ids()) == sids[4:]
    assert sharded.check_invariants() == []


def test_lru_keeps_hot_payloads_alive():
    # One shard, room for ~2 payloads; touching A repeatedly must evict
    # B, not A (the reason serving defaults to LRU).
    cache = ShardedByteCache(250, n_shards=1, eviction="lru")
    fp_a, fp_b, fp_c = FPS[0], FPS[1], FPS[2]
    cache.insert_packet(b"A" * 100, [(0, fp_a)])
    cache.insert_packet(b"B" * 100, [(0, fp_b)])
    assert cache.lookup(fp_a) is not None   # touch A: now most-recent
    cache.insert_packet(b"C" * 100, [(0, fp_c)])
    assert cache.lookup(fp_a) is not None
    assert cache.lookup(fp_b) is None


def test_probabilistic_admission_is_content_keyed():
    full = ShardedByteCache(BIG, n_shards=4, admission=1.0)
    half_a = ShardedByteCache(BIG, n_shards=4, admission=0.5)
    half_b = ShardedByteCache(BIG, n_shards=4, admission=0.5)
    payloads = [bytes([i]) * 40 for i in range(64)]
    admitted = 0
    for i, payload in enumerate(payloads):
        fp = FPS[i % len(FPS)]
        assert full.insert_packet(payload, [(0, fp)]) != 0
        sid_a = half_a.insert_packet(payload, [(0, fp)])
        sid_b = half_b.insert_packet(payload, [(0, fp)])
        # Content-keyed coin: two caches (think encoder + decoder)
        # always make the same decision for the same bytes.
        assert (sid_a == 0) == (sid_b == 0)
        expected = (zlib.crc32(payload) & 0xFFFFFFFF) <= int(0.5 * 0xFFFFFFFF)
        assert (sid_a != 0) == expected
        admitted += sid_a != 0
    assert 0 < admitted < len(payloads)
    assert half_a.admission_rejected == len(payloads) - admitted


def test_constructor_validation():
    with pytest.raises(ValueError):
        ShardedByteCache(0)
    with pytest.raises(ValueError):
        ShardedByteCache(1024, n_shards=0)
    with pytest.raises(ValueError):
        ShardedByteCache(1024, admission=0.0)
    with pytest.raises(ValueError):
        ShardedByteCache(1024, admission=1.5)
    with pytest.raises(ValueError):
        ShardedByteCache(1024).set_byte_budget(-1)


def test_payload_homes_byte_accounting_and_unique_ids():
    # One fingerprint table, so "a fingerprint resident in two shards"
    # can no longer exist; what sharding still promises is checked here.
    cache = ShardedByteCache(BIG, n_shards=4)
    rnd = random.Random(4)
    sids = []
    for i in range(40):
        anchors = [(8 * k, rnd.choice(FPS)) for k in range(rnd.randint(0, 3))]
        payload = bytes([i]) * (20 + i)
        sid = cache.insert_packet(payload, anchors)
        sids.append(sid)
        # Payload home = shard of the first anchor (content-keyed when
        # the payload has none).
        home = (shard_of(anchors[0][1], 4) if anchors
                else zlib.crc32(payload) % 4)
        assert sid in cache.store.shards[home]
        assert cache.store.get(sid) == payload
    # Store ids are unique across shards, bytes are accounted per shard.
    assert len(set(sids)) == len(sids) == len(cache.store)
    assert sorted(cache.store.ids()) == sids
    for shard in cache.store.shards:
        assert shard.bytes_used == sum(len(shard.get(sid))
                                       for sid in list(shard.ids()))
    assert cache.check_invariants() == []
    # Manufacture the corruptions the oracle exists to catch: one
    # payload held by two shards, and bytes the accounting missed.
    donor, other = cache.store.shards[0], cache.store.shards[1]
    stolen = next(donor.ids())
    other._data[stolen] = donor._data[stolen]
    problems = cache.check_invariants()
    assert any("held by shards" in p for p in problems)
    assert any("not homed there" in p for p in problems)
    assert any("accounted" in p for p in problems)


def test_store_and_table_views_for_telemetry_and_oracles():
    cache = ShardedByteCache(BIG, n_shards=4)
    sid = cache.insert_packet(b"y" * 40, [(0, FPS[0]), (8, FPS[1])])
    # Telemetry surface (register_gateway reads these).
    assert len(cache.store) == 1
    assert cache.store.bytes_used == 40
    assert cache.store.evictions == 0
    assert cache.epoch == 0
    # Coherence-oracle surface: side-effect-free peek.
    assert cache.store.peek(sid) == b"y" * 40
    assert cache.store.peek(sid + 999) is None
    entries = list(cache.table.entries())
    assert {e.fingerprint for e in entries} == {FPS[0], FPS[1]}
    occupancy = cache.shard_occupancy()
    assert len(occupancy) == 4
    assert sum(row["payloads"] for row in occupancy) == 1
    assert sum(row["entries"] for row in occupancy) == 2


# ---------------------------------------------------------------------------
# encoder level: the serving cache rides the ring fast path
# ---------------------------------------------------------------------------

def test_encoder_wire_bytes_identical_over_one_fifo_shard():
    """The same lossy packet sequence (a transfer with every seventh
    segment retransmitted, under a budget that evicts) encodes to the
    same wire bytes over ByteCache and over one FIFO shard, and the
    sharded run takes the ring path."""
    data = corpus_object("file1", seed=3)
    segments = [(seq, data[seq: seq + 1460])
                for seq in range(0, 120 * 1460, 1460)]
    sequence = []
    for index, segment in enumerate(segments):
        sequence.append(segment)
        if index % 7 == 6:
            sequence.append(segments[index - 3])     # a retransmission
    sequence += segments[:40]                        # a repeated request

    def wire(cache):
        policy, _ = make_policy_pair("k_distance")
        encoder = ByteCachingEncoder(
            FingerprintScheme(window=16, zero_bits=4), cache, policy)
        out = []
        for counter, (seq, payload) in enumerate(sequence):
            meta = PacketMeta(packet_id=counter, flow=("t", 0),
                              tcp_seq=seq, counter=counter)
            out.append(encoder.encode(payload, meta).data)
        return out, encoder

    budget = 48 * 1024
    plain, _ = wire(ByteCache(budget))
    sharded_cache = ShardedByteCache(budget, n_shards=1, eviction="fifo")
    sharded, encoder = wire(sharded_cache)
    assert plain == sharded
    assert sharded_cache.store.evictions > 0
    assert any(len(blob) < 1460 for blob in sharded)     # it did encode
    anchors = encoder.scheme.anchors(sequence[0][1])
    assert type(encoder._candidate_pairs(anchors)) is _SplitPairs
