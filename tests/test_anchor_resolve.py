"""A packet's anchors resolved in one pass == looked up one by one.

``ByteCachingEncoder._candidate_pairs`` maps a whole packet's
fingerprints through the ring index before the region loop runs, and
``_find_regions`` reads the resolved pointers by position.  The
per-anchor reference encoder of ``tests/reference_cache.py`` resolves
nothing up front and calls ``ByteCache.lookup`` anchor by anchor, so
wire bytes, regions, dependencies, the whole ``EncoderStats`` and the
store's recency order must agree on exactly the cases where a
pre-resolved pointer could differ from a fresh lookup.
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core.cache import ByteCache
from repro.core.encoder import ByteCachingEncoder, _EMPTY_SPLIT
from repro.core.fingerprint import FingerprintScheme
from repro.core.policies import PacketMeta, make_policy_pair
from tests.reference_cache import PerAnchorEncoder
from tests.test_per_record_eligibility import FLOWS, SEGMENT, _stream


def _pair(policy="naive", scheme=None, **cache_kwargs):
    """(production, reference) encoders over equal, separate caches."""
    scheme = scheme or FingerprintScheme(window=16, zero_bits=3)
    cache_kwargs.setdefault("byte_budget", 1 << 22)
    return [cls(scheme, ByteCache(**cache_kwargs), make_policy_pair(policy)[0])
            for cls in (ByteCachingEncoder, PerAnchorEncoder)]


def _meta(counter, seq=None, flow=FLOWS[0]):
    return PacketMeta(packet_id=counter, flow=flow, counter=counter,
                      tcp_seq=counter * SEGMENT if seq is None else seq)


def _encode_both(encoders, payload, meta):
    new, ref = (encoder.encode(payload, meta) for encoder in encoders)
    assert new.data == ref.data
    assert new.regions == ref.regions
    assert new.dependencies == ref.dependencies
    return new


def _assert_same_state(encoders):
    new, ref = encoders
    assert new.stats == ref.stats
    # Recency order of the payload store (LRU moves on every get).
    assert list(new.cache.store.ids()) == list(ref.cache.store.ids())
    assert new.cache.table.indexed == ref.cache.table.indexed


def test_first_packet_pointer_is_a_hit():
    scheme = FingerprintScheme(window=16, zero_bits=3)
    for seed in range(50):
        first = random.Random(seed).randbytes(400)
        offsets = scheme.anchors(first).offsets.tolist()
        # Two anchors whose windows do not overlap, so a prefix can hold
        # the first window whole and break the second.
        if len(offsets) >= 2 and offsets[0] + 16 <= offsets[1]:
            break
    else:
        raise AssertionError("no suitable payload in 50 seeds")
    encoders = _pair(scheme=scheme)
    _encode_both(encoders, first, _meta(0))
    shared = first[:offsets[1] + 15]            # second window cut short
    second = shared + random.Random(999).randbytes(400 - len(shared))
    pairs = encoders[0]._candidate_pairs(scheme.anchors(second))
    # Store id 1 (the first packet cached), the first anchor's offset.
    assert pairs.pointers[0] == 1 << 32 | offsets[0]
    assert all(pointer is None for pointer in pairs.pointers[1:])
    result = _encode_both(encoders, second, _meta(1))
    assert [region.fingerprint for region in result.regions] == \
        [pairs.fingerprints[0]]
    _assert_same_state(encoders)


def test_all_miss_packet_resolves_to_the_empty_split():
    encoders = _pair()
    rnd = random.Random(5)
    for counter in range(4):
        _encode_both(encoders, rnd.randbytes(SEGMENT), _meta(counter))
    fresh = rnd.randbytes(SEGMENT)
    new = encoders[0]
    assert len(new.scheme.anchors(fresh)) > 0
    assert new._candidate_pairs(new.scheme.anchors(fresh)) is _EMPTY_SPLIT
    result = _encode_both(encoders, fresh, _meta(4))
    assert not result.encoded
    _assert_same_state(encoders)


def test_duplicate_fingerprint_pointing_at_an_evicted_payload():
    # One 64-byte block three times: every window inside it recurs, so
    # the packet carries each of those fingerprints at several offsets.
    rnd = random.Random(11)
    block = rnd.randbytes(64)
    repeated = block * 3 + rnd.randbytes(40)
    encoders = _pair(byte_budget=2 * len(repeated) + 10)
    fps = encoders[0].scheme.anchors(repeated).fps_list()
    duplicated = {fp for fp in fps if fps.count(fp) > 1}
    assert duplicated
    _encode_both(encoders, repeated, _meta(0))
    for counter in (1, 2):                      # push it out of the store
        _encode_both(encoders, rnd.randbytes(len(repeated)), _meta(counter))
    for encoder in encoders:
        assert encoder.cache.store.evictions >= 1
        assert duplicated <= set(encoder.cache.table._index)   # dangling
    # First occurrence removes the index entry; the second holds the
    # pointer resolved before that and must land on the same ``continue``.
    result = _encode_both(encoders, repeated, _meta(3))
    assert not result.encoded
    _assert_same_state(encoders)
    for encoder in encoders:
        # Removed by the probe, re-pointed by the cache update: every
        # duplicated fingerprint now resolves to the fresh copy.
        for fp in duplicated:
            assert encoder.cache.lookup(fp)[1] == repeated


def test_one_region_swallows_every_other_resolved_hit():
    encoders = _pair()
    payload = random.Random(21).randbytes(SEGMENT)
    _encode_both(encoders, payload, _meta(0))
    pairs = encoders[0]._candidate_pairs(encoders[0].scheme.anchors(payload))
    assert len(pairs.pointers) > 5 and None not in pairs.pointers
    result = _encode_both(encoders, payload, _meta(1))
    assert len(result.regions) == 1 and result.regions[0].length == SEGMENT
    _assert_same_state(encoders)


def test_dangling_entry_is_removed_even_when_the_insert_is_deferred():
    # Under ack_gated a TCP packet is probed now and cached later, so
    # nothing re-points a fingerprint the probe found dangling: whether
    # the lazy removal happened shows in the table size straight after
    # ``encode``.  (With an immediate cache update it never does.)
    encoders = _pair("ack_gated", byte_budget=2 * SEGMENT + 10)
    rnd = random.Random(41)
    victim = rnd.randbytes(SEGMENT)
    untracked = dict(packet_id=0, flow=None, tcp_seq=None)   # cached at once
    for counter, payload in enumerate(
            [victim, rnd.randbytes(SEGMENT), rnd.randbytes(SEGMENT)]):
        _encode_both(encoders, payload,
                     PacketMeta(counter=counter, **untracked))
    fps = set(encoders[0].scheme.anchors(victim).fps_list())
    for encoder in encoders:
        assert encoder.cache.store.evictions >= 1
        assert fps <= set(encoder.cache.table._index)          # dangling
    before = encoders[0].cache.table.indexed
    result = _encode_both(encoders, victim, _meta(3))
    assert not result.encoded and not result.cached
    _assert_same_state(encoders)
    for encoder in encoders:
        assert encoder.cache.table.indexed == before - len(fps)
        assert not fps & set(encoder.cache.table._index)


def test_refused_source_is_read_again_once_another_source_was_read():
    # tcp_seq refuses a retransmission's own cached copy.  Hits on it
    # straight after a refusal skip the store; once a hit on another
    # source has read the store, the next hit on the refused copy reads
    # it again, so an LRU store ends in the per-anchor recency order.
    encoders = _pair("tcp_seq", eviction="lru")
    rnd = random.Random(51)
    a, b, c = (rnd.randbytes(SEGMENT) for _ in range(3))
    for counter, payload in enumerate((a, b, c)):
        _encode_both(encoders, payload, _meta(counter))
    third = SEGMENT // 3
    retransmission = b[:third] + a[:third] + b[2 * third:]
    result = _encode_both(encoders, retransmission, _meta(3, seq=SEGMENT))
    assert result.dependencies == {0}
    _assert_same_state(encoders)
    assert encoders[0].stats.ineligible_hits > 2
    # Store ids 1, 2, 3 are a, b, c; b was read last, then 4 cached.
    assert list(encoders[0].cache.store.ids()) == [3, 1, 2, 4]


def _ack(flow, ack):
    """The reverse-path ACK segment ``AckGatedPolicy`` listens for."""
    src, src_port, dst, dst_port = flow
    return SimpleNamespace(
        src=dst, dst=src,
        tcp=SimpleNamespace(has_ack=True, ack=ack,
                            src_port=dst_port, dst_port=src_port))


def test_ack_gated_insert_landing_between_two_probes():
    encoders = _pair("ack_gated")
    rnd = random.Random(31)
    a, b = rnd.randbytes(SEGMENT), rnd.randbytes(SEGMENT)
    steps = [("send", a, 0), ("send", b, SEGMENT),
             ("ack", SEGMENT),                  # commits a, after b's probe
             ("send", a, 0),                    # hits the late insert
             ("send", b, SEGMENT),              # still uncommitted: raw
             ("ack", 2 * SEGMENT),
             ("send", b, SEGMENT), ("send", a + b[:100], 2 * SEGMENT)]
    encoded = []
    for counter, step in enumerate(steps):
        if step[0] == "ack":
            for encoder in encoders:
                encoder.policy.on_reverse_packet(_ack(FLOWS[0], step[1]),
                                                 encoder.cache)
            continue
        result = _encode_both(encoders, step[1], _meta(counter, seq=step[2]))
        assert not result.cached
        encoded.append(result.encoded)
    assert encoded == [False, False, True, False, True, True]
    assert encoders[0].policy.committed == encoders[1].policy.committed > 0
    _assert_same_state(encoders)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16),
       st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, 4]),
                min_size=4, max_size=30),
       st.sampled_from(["fifo", "lru"]), st.integers(3, 12),
       st.sampled_from(["naive", "tcp_seq"]))
def test_resolved_ids_match_per_anchor_lookups_under_eviction(seed, steps,
                                                              eviction, room,
                                                              policy):
    """Retransmission-heavy redundant streams through a store holding
    only ``room`` segments: dangling entries, lazy removals and (LRU)
    recency moves on every probe — under ``tcp_seq`` also for hits the
    policy then declines, which is what fixes the store touch *before*
    the verdict."""
    encoders = _pair(policy, byte_budget=room * SEGMENT, eviction=eviction)
    for counter, (payload, flow, index) in enumerate(_stream(seed, steps)):
        _encode_both(encoders, payload,
                     _meta(counter, seq=index * SEGMENT, flow=flow))
        _assert_same_state(encoders)
