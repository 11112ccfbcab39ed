"""Ring-buffer fingerprint table edge cases.

The contiguous table (repro.core.ringtable) must match the reference
dict table observable-for-observable; these tests pin the corners the
differential runner's whole-pipeline comparison can miss: bitmap hash
collisions, fixed-capacity wrap evicting live entries, the epoch stamp
across flushes, and a property-level parity sweep against the dict
table through the ByteCache front door.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import ByteCache, CacheEntry, FingerprintTable
from repro.core.ringtable import _FIB, RingFingerprintTable


def _insert(table, fingerprints, store_id=0, counter=0):
    fps = np.array(fingerprints, dtype=np.uint64)
    offsets = np.arange(len(fingerprints), dtype=np.int64)
    table.insert_batch(offsets, fps, store_id, None, None, counter)


def _colliding_fingerprints(bits):
    """Two distinct fingerprints sharing one bitmap slot."""
    multiplier = int(_FIB)
    shift = 64 - bits
    base = 12345
    target = (base * multiplier) % (1 << 64) >> shift
    for candidate in range(base + 1, base + 1_000_000):
        if (candidate * multiplier) % (1 << 64) >> shift == target:
            return base, candidate
    raise AssertionError("no collision found in search range")


class TestCandidateBitmap:
    def test_hash_collision_is_a_false_positive_only(self):
        table = RingFingerprintTable(capacity=64, bitmap_bits=8)
        present, absent = _colliding_fingerprints(8)
        _insert(table, [present])
        mask = table.candidates(np.array([present, absent],
                                         dtype=np.uint64))
        # The bitmap cannot tell the two apart (shared slot) ...
        assert mask.tolist() == [True, True]
        # ... but the index ground truth can.
        assert table.get(present) is not None
        assert table.get(absent) is None

    def test_no_false_negatives(self):
        table = RingFingerprintTable(capacity=256, bitmap_bits=10)
        fingerprints = list(range(1000, 1100))
        _insert(table, fingerprints)
        mask = table.candidates(np.array(fingerprints, dtype=np.uint64))
        assert mask.all()

    def test_candidate_indices_matches_candidates(self):
        table = RingFingerprintTable(capacity=64)
        _insert(table, [7, 11, 13])
        probe = np.array([5, 7, 9, 11, 13, 15], dtype=np.uint64)
        mask = table.candidates(probe)
        idxs = table.candidate_indices(probe)
        assert idxs.tolist() == mask.nonzero()[0].tolist()

    def test_scratch_tag_reuse_after_probe(self):
        # Probing then inserting the SAME array must stamp the same
        # bitmap slots as a cold insert (the tag shortcut skips the
        # hash recompute, not the stamping).
        tagged = RingFingerprintTable(capacity=64)
        cold = RingFingerprintTable(capacity=64)
        fps = np.array([101, 202, 303], dtype=np.uint64)
        offsets = np.arange(3, dtype=np.int64)
        tagged.candidates(fps)          # leaves hashes + tag in scratch
        tagged.insert_batch(offsets, fps, 0, None, None, 0)
        cold.insert_batch(offsets, fps.copy(), 0, None, None, 0)
        assert np.array_equal(tagged._bm, cold._bm)
        # Tag is consumed: a second insert recomputes.
        assert tagged._scratch_tag is None

    def test_deferred_inserts_do_not_stamp_each_others_hashes(self):
        # ack_gated order: probe A, probe B, then commit A and B.  The
        # commit of A recomputes over the scratch; B's tag must not
        # survive that, or B gets A's hashes stamped into the bitmap.
        table = RingFingerprintTable(capacity=64)
        a = np.array([101, 202, 303], dtype=np.uint64)
        b = np.array([404, 505, 606], dtype=np.uint64)
        offsets = np.arange(3, dtype=np.int64)
        table.candidate_indices(a)
        table.candidate_indices(b)
        table.insert_batch(offsets, a, 0, None, None, 0)
        table.insert_batch(offsets, b, 1, None, None, 1)
        assert table.candidates(a).all()
        assert table.candidates(b).all()        # no false negatives

    def test_epoch_bump_clears_without_touching_memory(self):
        table = RingFingerprintTable(capacity=64)
        _insert(table, [42])
        assert table.candidates(np.array([42], dtype=np.uint64))[0]
        table.clear()
        assert not table.candidates(np.array([42], dtype=np.uint64))[0]

    def test_epoch_wraps_at_256_flushes(self):
        table = RingFingerprintTable(capacity=64)
        for _ in range(300):    # crosses the uint8 wrap at least once
            _insert(table, [42])
            assert table.candidates(np.array([42], dtype=np.uint64))[0]
            table.clear()
            assert not table.candidates(
                np.array([42], dtype=np.uint64))[0]
            assert table.get(42) is None


class TestFixedModeWrap:
    def test_wrap_evicts_oldest_live_entries(self):
        table = RingFingerprintTable(capacity=4, autogrow=False)
        _insert(table, [1, 2], store_id=0)
        _insert(table, [3, 4], store_id=1)
        assert len(table) == 4
        # The ring is full: two more anchors advance the floor past the
        # two oldest entries, evicting them even though still current.
        _insert(table, [5, 6], store_id=2)
        assert table.get(1) is None
        assert table.get(2) is None
        assert table.get(5) is not None
        assert table.evictions == 2
        floor, nxt = table.id_window()
        assert nxt - floor == 4

    def test_wrap_does_not_evict_replaced_fingerprints_twice(self):
        table = RingFingerprintTable(capacity=4, autogrow=False)
        _insert(table, [1, 2], store_id=0)
        _insert(table, [1, 2], store_id=1)   # replaces both
        _insert(table, [3, 4], store_id=2)   # wraps past the stale pair
        # The stale first-generation entries were not the index's
        # current ids, so nothing live was evicted.
        assert table.evictions == 0
        assert table.get(1).store_id == 1
        assert table.get(3).store_id == 2

    def test_wrap_drops_unusable_marks_of_evicted_ids(self):
        table = RingFingerprintTable(capacity=4, autogrow=False)
        _insert(table, [1, 2], store_id=0)
        entry = table.get(1)
        entry.usable = False
        _insert(table, [3, 4], store_id=1)
        _insert(table, [5, 6], store_id=2)   # evicts ids 0 and 1
        assert not table._unusable_ids
        # A fresh insert reusing the wrapped slots starts usable.
        _insert(table, [7, 8], store_id=3)
        assert table.get(7).usable

    def test_batch_larger_than_fixed_capacity_rejected(self):
        table = RingFingerprintTable(capacity=4, autogrow=False)
        with pytest.raises(ValueError):
            _insert(table, [1, 2, 3, 4, 5])


class TestAutogrow:
    def test_compaction_preserves_current_and_previous(self):
        table = RingFingerprintTable(capacity=8)
        # Two indexed fingerprints replaced over and over: room-making
        # picks compaction (4 * index size <= capacity) over growth.
        for store_id in range(5):
            _insert(table, [1, 2], store_id=store_id)
        assert table.compactions >= 1
        assert table.grows == 0
        assert table.get(1).store_id == 4
        previous = table.previous_entry(1)
        assert previous is not None and previous.store_id == 3

    def test_growth_keeps_all_ids_valid(self):
        table = RingFingerprintTable(capacity=4)
        _insert(table, list(range(100, 108)), store_id=0)
        assert table.grows >= 1
        for fingerprint in range(100, 108):
            assert table.get(fingerprint) is not None


def _brute_previous(table, fingerprint):
    """previous_entry by walking every live id, newest first."""
    floor, top = table.id_window()
    ids = [i for i in range(floor, top)
           if int(table._fps[i & table._mask]) == fingerprint]
    if not ids:
        return None
    ref = table.get_id(fingerprint)
    if ref is None:
        ref = ids[-1]

    def store_of(entry_id):
        return table._rec_store[int(table._pkt[entry_id & table._mask])]

    for entry_id in reversed(ids):
        if entry_id < ref and store_of(entry_id) != store_of(ref):
            return entry_id
    return None


def _assert_history_matches_brute_force(table, fingerprints):
    for fingerprint in fingerprints:
        for _ in range(2):              # second ask is served by the memo
            got = table.previous_entry(fingerprint)
            want = _brute_previous(table, fingerprint)
            assert (got._id if got is not None else None) == want


class TestPreviousEntry:
    FPS = list(range(1, 7))

    @pytest.mark.parametrize("autogrow", [True, False])
    def test_matches_brute_force_across_room_making(self, autogrow):
        # Capacity 8 with 3-anchor batches: the window wraps the array
        # end, then compacts / grows (autogrow) or evicts (fixed).
        table = RingFingerprintTable(capacity=8, autogrow=autogrow)
        rnd = np.random.default_rng(14)
        wrapped = 0
        for store_id in range(40):
            batch = rnd.choice(self.FPS, size=3, replace=False).tolist()
            _insert(table, batch, store_id=store_id // 2)
            floor, top = table.id_window()
            wrapped += (floor & table._mask) >= (top & table._mask)
            _assert_history_matches_brute_force(table, self.FPS)
        if autogrow:        # floor stays 0: wraps only when exactly full
            assert table.compactions >= 1 and table.grows >= 1
        else:
            assert table.evictions >= 1 and wrapped

    def test_exactly_full_ring(self):
        table = RingFingerprintTable(capacity=4)
        _insert(table, [1, 2], store_id=0)
        _insert(table, [1, 2], store_id=1)
        assert table.id_window() == (0, 4)
        _assert_history_matches_brute_force(table, [1, 2, 3])
        assert table.previous_entry(2).store_id == 0

    def test_mutation_between_two_queries_is_seen(self):
        table = RingFingerprintTable(capacity=16)
        _insert(table, [1, 2], store_id=0)
        assert table.previous_entry(1) is None
        _insert(table, [1], store_id=1)
        assert table.previous_entry(1).store_id == 0        # insert
        _insert(table, [1], store_id=2)
        assert table.previous_entry(1).store_id == 1
        table.remove(1)
        # Lazily removed: the newest ring entry (store 2) is the
        # reference, so the answer stays store 1 — by a fresh scan.
        assert not table._history_memo
        assert table.previous_entry(1).store_id == 1
        _assert_history_matches_brute_force(table, [1, 2])
        table.clear()
        assert table.previous_entry(1) is None              # clear
        _insert(table, [1], store_id=7)
        _insert(table, [1], store_id=8)
        assert table.previous_entry(1).store_id == 7

    def test_scan_allocates_no_window_sized_id_arrays(self):
        table = RingFingerprintTable(capacity=1 << 14)
        _insert(table, list(range(10_000)), store_id=0)
        _insert(table, [5], store_id=1)
        import tracemalloc

        tracemalloc.start()
        assert table.previous_entry(5).store_id == 0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # One bool per live entry, not three int64 arrays of them.
        assert peak < 3 * 10_000


def _entry(fingerprint, store_id, offset, counter):
    return CacheEntry(fingerprint, store_id, offset, None, None, counter)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 30),                  # fingerprint (small: forces replacements)
              st.integers(0, 5),                   # packets-back store ref
              st.integers(0, 200)),                # offset
    min_size=1, max_size=60))
def test_ring_matches_dict_table_property(ops):
    """Same insert sequence → same observable state as the dict table."""
    ring = RingFingerprintTable(capacity=8)
    reference = FingerprintTable()
    for counter, (fingerprint, store_id, offset) in enumerate(ops):
        ring.put(_entry(fingerprint, store_id, offset, counter))
        reference.put(_entry(fingerprint, store_id, offset, counter))
    assert len(ring) == len(reference)
    assert ring.inserts == reference.inserts
    assert ring.replacements == reference.replacements
    for fingerprint, _, _ in ops:
        ring_hit = ring.get(fingerprint)
        ref_hit = reference.get(fingerprint)
        assert (ring_hit is None) == (ref_hit is None)
        if ring_hit is not None:
            assert ring_hit.store_id == ref_hit.store_id
            assert ring_hit.offset == ref_hit.offset
            assert ring_hit.packet_counter == ref_hit.packet_counter


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=40, max_size=600),
                min_size=1, max_size=12),
       st.integers(0, 2 ** 16))
def test_cache_insert_parity_ring_vs_dict(payloads, seed):
    """insert_packet + lookup through ByteCache: ring == dict."""
    from repro.core.fingerprint import FingerprintScheme

    scheme = FingerprintScheme(window=16, zero_bits=2)
    ring_cache = ByteCache(1 << 20, table_kind="ring")
    dict_cache = ByteCache(1 << 20, table_kind="dict")
    fingerprints = set()
    for counter, payload in enumerate(payloads):
        anchors = scheme.anchors(payload)
        fingerprints.update(fp for _, fp in anchors.pairs())
        for cache in (ring_cache, dict_cache):
            cache.insert_packet(payload, scheme.anchors(payload),
                                tcp_seq=counter * 1460,
                                packet_counter=counter)
    fingerprints.add(seed)          # probe at least one likely-miss
    for fingerprint in fingerprints:
        ring_hit = ring_cache.lookup(fingerprint)
        dict_hit = dict_cache.lookup(fingerprint)
        assert (ring_hit is None) == (dict_hit is None)
        if ring_hit is not None:
            assert ring_hit[1] == dict_hit[1]
            assert ring_hit[0].offset == dict_hit[0].offset
        # Zero-copy view agrees with the copying lookup.
        view = ring_cache.lookup_view(fingerprint)
        assert (view is None) == (ring_hit is None)
        if view is not None:
            assert bytes(view) == ring_hit[1]
