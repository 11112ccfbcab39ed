"""Append-log fingerprint table edge cases.

The contiguous table (repro.core.ringtable) must match the reference
dict table of ``tests/reference_cache.py`` observable-for-observable;
these tests pin the corners a whole-pipeline comparison can miss:
compaction and growth (the log keeps exactly the entries whose packet
is stored), the history scan, the capacity ByteCache derives from its
budget, and a property-level parity sweep against the dict table
through the ByteCache front door.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import MAX_PAYLOAD, ByteCache
from repro.core.fingerprint import FingerprintScheme
from repro.core.ringtable import OFFSET_BITS, RingFingerprintTable
from tests.reference_cache import CacheEntry, DictByteCache, FingerprintTable


def _insert(table, fingerprints, store_id=0, counter=0, stored=None):
    """Cache one packet's anchors; with ``stored``, the records of all
    but the newest ``stored`` packets go first, as a FIFO store's
    ``add`` evicts before the table is updated."""
    fps = np.array(fingerprints, dtype=np.uint64)
    offsets = np.arange(len(fingerprints), dtype=np.int64)
    table.records[store_id] = (None, None, counter, None)
    if stored is not None:
        for old in sorted(table.records)[:-stored]:
            del table.records[old]
    table.insert_batch(offsets, fps, store_id)


class TestAutogrow:
    def test_compaction_preserves_current_and_previous(self):
        table = RingFingerprintTable(capacity=8)
        # Two fingerprints replaced over and over under a store of two
        # packets: the stored entries plus the batch fit in half the
        # log, so room making compacts instead of growing.
        for store_id in range(5):
            _insert(table, [1, 2], store_id=store_id, stored=2)
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


class TestCapacityFromBudget:
    """ByteCache sizes its ring from the budgets it is given."""

    def test_16mb_cache_absorbs_file1_twice_without_growing(self):
        from repro.core.fingerprint import FingerprintScheme
        from repro.workload.corpus import corpus_object

        scheme = FingerprintScheme(window=16, zero_bits=4)
        data = corpus_object("file1", seed=0)
        cache = ByteCache(16 * 1024 * 1024)
        anchors = 0
        for _ in range(2):                      # forward and reverse copy
            for seq in range(0, len(data), 1460):
                payload = data[seq: seq + 1460]
                selected = scheme.anchors(payload)
                anchors += len(selected)
                cache.insert_packet(payload, selected, tcp_seq=seq)
        ring = cache.table
        assert ring.inserts == anchors > 70_000
        assert ring.grows == 0 and ring.compactions == 0
        assert ring.capacity >= anchors

    @pytest.mark.parametrize("kwargs", [
        dict(byte_budget=16 * 1024 * 1024, max_packets=10),   # Table I
        dict(byte_budget=1),
    ])
    def test_small_budgets_get_the_floor_capacity(self, kwargs):
        assert ByteCache(**kwargs).table.capacity == 1024
        # ... and a larger budget does not.
        assert ByteCache(256 * 1024).table.capacity == 16_384

    def test_capacity_is_a_power_of_two_between_floor_and_ceiling(self):
        for budget in (1, 1000, 16_385, 48 * 1024, 1 << 20, 1 << 24, 1 << 30):
            capacity = ByteCache(budget).table.capacity
            assert capacity & (capacity - 1) == 0
            assert 1024 <= capacity <= 1 << 17
            assert capacity >= min(budget // 16, 1 << 17)

    def test_cache_that_outgrows_its_ring_compacts_grows_and_keeps_history(self):
        # The room-making tests above, driven through ByteCache at the
        # capacity it derives (the floor) instead of a hand-picked one.
        cache = ByteCache(byte_budget=1, max_packets=1)
        ring = cache.table
        assert ring.capacity == 1024
        rnd = np.random.default_rng(17)
        hot = list(range(1, 41))
        for store_id in range(120):             # 40 hot fps: compaction
            batch = rnd.choice(hot, size=30, replace=False).tolist()
            _insert(ring, batch, store_id=store_id // 2, stored=3)
            if store_id % 10 == 0:
                _assert_history_matches_brute_force(ring, hot)
        assert ring.compactions >= 1 and ring.grows == 0
        _insert(ring, list(range(1000, 3000)), store_id=500,  # too wide
                stored=3)
        assert ring.grows >= 1 and ring.capacity > 1024
        _assert_history_matches_brute_force(ring, hot + [1000, 2999])
        assert ring.get(2999).store_id == 500
        for fingerprint in hot:
            entry = ring.get(fingerprint)
            assert entry is None or entry.store_id in ring.records

    @pytest.mark.parametrize("eviction", ["fifo", "lru"])
    def test_log_is_bounded_by_the_packets_stored(self, eviction):
        # 20,000 overlapping MTU payloads through a 64 KiB cache: the
        # index keeps meeting new fingerprints while the store holds
        # ~45 packets, so only dropping what the store evicted keeps
        # the log near its starting size.
        scheme = FingerprintScheme()
        rnd = np.random.default_rng(26)
        data = rnd.integers(0, 256, 300_000, dtype=np.uint8).tobytes()
        cache = ByteCache(64 * 1024, eviction=eviction)
        ring = cache.table
        start = ring.capacity
        compactions = 0
        for offset in (rnd.integers(0, 2_980, 20_000) * 100).tolist():
            payload = data[offset: offset + 1460]
            anchors = scheme.anchors(payload)
            for fingerprint in anchors.fps_list()[:4]:
                cache.lookup(fingerprint)       # LRU touches, lazy removal
            cache.insert_packet(payload, anchors)
            if ring.compactions != compactions:
                compactions = ring.compactions
                stored = cache.store.records
                # Every log row and every index key points at a
                # stored packet straight after a compaction.
                rows = (ring._ptr[:ring._next] >> OFFSET_BITS).tolist()
                assert stored.keys() >= set(rows)
                assert all(pointer >> OFFSET_BITS in stored
                           for pointer in ring._index.values())
        assert ring.compactions >= 10
        assert ring.capacity <= 4 * start


def _brute_previous(table, fingerprint):
    """previous_entry by walking every log row, newest first: the
    pointer of the newest row whose packet is stored and is not the
    current one's."""
    current = table._index.get(fingerprint)
    current_store = None if current is None else current >> OFFSET_BITS
    for row in reversed(range(table._next)):
        pointer = int(table._ptr[row])
        store_id = pointer >> OFFSET_BITS
        if (int(table._fps[row]) == fingerprint
                and store_id != current_store and store_id in table.records):
            return pointer
    return None


def _assert_history_matches_brute_force(table, fingerprints):
    for fingerprint in fingerprints:
        got = table.previous_entry(fingerprint)
        want = _brute_previous(table, fingerprint)
        if got is None:
            assert want is None
        else:
            assert got.fingerprint == fingerprint
            assert got.store_id << OFFSET_BITS | got.offset == want


class TestPreviousEntry:
    FPS = list(range(1, 7))

    def test_matches_brute_force_across_room_making(self):
        # Capacity 8 with 3-anchor batches: the window fills the
        # arrays, then compacts / grows.
        table = RingFingerprintTable(capacity=8)
        rnd = np.random.default_rng(14)
        for store_id in range(40):
            batch = rnd.choice(self.FPS, size=3, replace=False).tolist()
            _insert(table, batch, store_id=store_id // 2, stored=3)
            _assert_history_matches_brute_force(table, self.FPS)
        assert table.compactions >= 1 and table.grows >= 1

    def test_exactly_full_ring(self):
        table = RingFingerprintTable(capacity=4)
        _insert(table, [1, 2], store_id=0)
        _insert(table, [1, 2], store_id=1)
        assert table._next == table.capacity == 4
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
        del table.records[1]                                # eviction
        assert table.previous_entry(1).store_id == 0
        del table.records[2]
        table.remove(1)
        # Lazily removed with its packet: no current entry, so the
        # newest stored generation answers.
        assert table.previous_entry(1).store_id == 0
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


class TestPointer:
    """An index value is ``store_id << 32 | offset``."""

    def test_largest_payload_reads_back_exact(self):
        # The largest payload a cache stores, under the largest store
        # id a pointer holds: every anchor's offset and store id come
        # back exact, through the memoised (uint16) anchors and through
        # a pair list, with nothing carried across the 32-bit seam.
        scheme = FingerprintScheme(window=16, zero_bits=4)
        payload = np.random.default_rng(45).integers(
            0, 256, MAX_PAYLOAD, dtype=np.uint8).tobytes()
        cache = ByteCache(1 << 20)
        top = (1 << (63 - OFFSET_BITS)) - 1
        cache.store._ids = itertools.count(top - 1)
        anchors = scheme.anchors(payload)
        assert cache.insert_packet(payload, anchors) == top - 1
        last = MAX_PAYLOAD - 1
        assert cache.insert_packet(payload, [(last, 7)]) == top
        newest = dict((fp, offset) for offset, fp in anchors.pairs())
        assert max(newest.values()) > MAX_PAYLOAD - 64
        for fingerprint, offset in newest.items():
            entry, stored = cache.lookup(fingerprint)
            assert (entry.store_id, entry.offset) == (top - 1, offset)
            assert stored[offset: offset + 16] == payload[offset: offset + 16]
        entry = cache.table.get(7)
        assert (entry.store_id, entry.offset) == (top, last)
        assert cache.table._index[7] == top << OFFSET_BITS | last

    def test_payload_past_the_limit_is_refused(self):
        cache = ByteCache(1 << 20)
        with pytest.raises(ValueError):
            cache.insert_packet(bytes(MAX_PAYLOAD + 1), [(0, 1)])
        assert len(cache.store) == 0 and cache.table.indexed == 0


def _entry(fingerprint, store_id, offset, counter):
    return CacheEntry(fingerprint, store_id, offset, None, None, counter)


def _put(ring, entry):
    """``FingerprintTable.put`` spelled as a one-anchor ring insert."""
    ring.records[entry.store_id] = (entry.tcp_seq, entry.flow,
                                    entry.packet_counter, None)
    ring.insert_batch(np.array([entry.offset], dtype=np.int64),
                      np.array([entry.fingerprint], dtype=np.uint64),
                      entry.store_id)


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
    for fingerprint, store_id, offset in ops:
        # One store id is one cached packet, so one packet counter.
        counter = 100 + store_id
        _put(ring, _entry(fingerprint, store_id, offset, counter))
        reference.put(_entry(fingerprint, store_id, offset, counter))
    assert ring.indexed == reference.indexed
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
    ring_cache = ByteCache(1 << 20)
    dict_cache = DictByteCache(1 << 20)
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
