"""Unit tests for the byte caches (packet store + fingerprint table)."""

import pytest

from repro.core.cache import ByteCache, PacketStore
from repro.core.shardcache import ShardedByteCache
from tests.reference_cache import CacheEntry, FingerprintTable


class TestPacketStore:
    def test_add_and_get(self):
        store = PacketStore()
        store_id = store.add(b"payload")
        assert store.get(store_id) == b"payload"
        assert store_id in store

    def test_byte_budget_evicts_fifo(self):
        store = PacketStore(byte_budget=100)
        ids = [store.add(b"x" * 40) for _ in range(4)]
        assert ids[0] not in store
        assert ids[1] not in store  # 160 -> evict until <= 100
        assert ids[2] in store and ids[3] in store
        assert store.evictions == 2

    def test_max_packets_evicts_fifo(self):
        store = PacketStore(byte_budget=1 << 20, max_packets=2)
        ids = [store.add(b"abc") for _ in range(3)]
        assert ids[0] not in store
        assert len(store) == 2

    def test_bytes_used_tracks_evictions(self):
        store = PacketStore(byte_budget=100)
        store.add(b"x" * 60)
        store.add(b"y" * 60)
        assert store.bytes_used == 60

    def test_clear(self):
        store = PacketStore()
        store.add(b"data")
        store.clear()
        assert len(store) == 0
        assert store.bytes_used == 0

    @pytest.mark.parametrize("kwargs", [
        {"byte_budget": 0}, {"byte_budget": -1},
        {"byte_budget": 10, "max_packets": 0},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            PacketStore(**kwargs)

    @pytest.mark.parametrize("make", [
        lambda: PacketStore(byte_budget=100, eviction="lru"),
        lambda: ShardedByteCache(100, n_shards=1, eviction="lru").store,
    ], ids=["single", "sharded"])
    @pytest.mark.parametrize("read", ["get", "peek"])
    def test_peek_leaves_lru_order_unchanged(self, make, read):
        # get() makes the oldest payload the most recent, so the next
        # insert evicts the other one; peek() reads it without that.
        store = make()
        first, second = store.add(b"a" * 40), store.add(b"b" * 40)
        assert getattr(store, read)(first) == b"a" * 40
        assert store.peek(999) is None
        store.add(b"c" * 40)
        evicted = second if read == "get" else first
        assert store.peek(evicted) is None
        assert store.peek(first ^ second ^ evicted) is not None


class TestFingerprintTable:
    """The dict-table oracle (``tests/reference_cache.py``) itself."""

    def test_put_get_remove(self):
        table = FingerprintTable()
        entry = CacheEntry(fingerprint=42, store_id=1, offset=0)
        table.put(entry)
        assert table.get(42) is entry
        table.remove(42)
        assert table.get(42) is None

    def test_newest_wins_replacement(self):
        table = FingerprintTable()
        table.put(CacheEntry(fingerprint=42, store_id=1, offset=0))
        newer = CacheEntry(fingerprint=42, store_id=2, offset=7)
        table.put(newer)
        assert table.get(42) is newer
        assert table.replacements == 1
        assert len(table) == 1

    def test_remove_missing_is_noop(self):
        FingerprintTable().remove(999)


class TestByteCache:
    def anchors(self, payload):
        return [(0, 100), (20, 200)]

    def test_insert_and_lookup(self):
        cache = ByteCache()
        cache.insert_packet(b"p" * 64, self.anchors(None), tcp_seq=5,
                            flow=("f",), packet_counter=3, external_id=77)
        entry, payload = cache.lookup(100)
        assert payload == b"p" * 64
        assert entry.tcp_seq == 5
        assert entry.flow == ("f",)
        assert entry.packet_counter == 3
        assert cache.external_id_for(entry.store_id) == 77

    def test_lookup_miss_returns_none(self):
        assert ByteCache().lookup(123) is None

    def test_admission_coin_is_the_sharded_caches(self):
        plain = ByteCache(1 << 30, admission=0.5)
        sharded = ShardedByteCache(1 << 30, n_shards=4, admission=0.5)
        for i in range(64):
            payload = bytes([i]) * 40
            assert ((plain.insert_packet(payload, [(0, 16 * i + 16)]) == 0)
                    == (sharded.insert_packet(payload,
                                              [(0, 16 * i + 16)]) == 0))
        assert plain.admission_rejected == sharded.admission_rejected > 0
        assert len(plain.store) == len(sharded.store) < 64

    @pytest.mark.parametrize("admission", [0.0, -0.5, 1.5])
    def test_admission_outside_unit_interval_rejected(self, admission):
        with pytest.raises(ValueError):
            ByteCache(1024, admission=admission)

    def test_lazy_invalidation_after_eviction(self):
        cache = ByteCache(byte_budget=100)
        cache.insert_packet(b"a" * 80, [(0, 1)])
        cache.insert_packet(b"b" * 80, [(0, 2)])  # evicts the first
        assert cache.lookup(1) is None            # removed lazily
        assert cache.table.get(1) is None
        entry, payload = cache.lookup(2)
        assert payload == b"b" * 80

    def test_replacement_points_to_newest_packet(self):
        """§III-A: 'updates its cache by replacing the entry for r from
        Pstored to Pnew'."""
        cache = ByteCache()
        cache.insert_packet(b"old" * 30, [(4, 55)])
        cache.insert_packet(b"new" * 30, [(9, 55)])
        entry, payload = cache.lookup(55)
        assert payload == b"new" * 30
        assert entry.offset == 9

    def test_flush_clears_everything(self):
        cache = ByteCache()
        cache.insert_packet(b"data", [(0, 9)], external_id=5)
        cache.flush()
        assert cache.lookup(9) is None
        assert len(cache.store) == 0
        assert cache.flushes == 1
        assert cache.external_id_for(1) is None

    def test_mark_unusable_blocks_lookup(self):
        cache = ByteCache()
        cache.insert_packet(b"data" * 10, [(0, 9)])
        assert cache.mark_unusable(9) is True
        assert cache.lookup(9) is None

    def test_mark_unusable_missing_fingerprint(self):
        assert ByteCache().mark_unusable(9) is False

    def test_unusable_entry_revives_on_replacement(self):
        cache = ByteCache()
        cache.insert_packet(b"one" * 20, [(0, 9)])
        cache.mark_unusable(9)
        cache.insert_packet(b"two" * 20, [(3, 9)])
        entry, payload = cache.lookup(9)
        assert payload == b"two" * 20

    def test_lookup_previous_returns_displaced_entry(self):
        cache = ByteCache()
        cache.insert_packet(b"old-payload" * 10, [(2, 9)])
        cache.insert_packet(b"new-payload" * 10, [(5, 9)])
        current = cache.lookup(9)
        previous = cache.lookup_previous(9)
        assert current[1] == b"new-payload" * 10
        assert previous[1] == b"old-payload" * 10
        assert previous[0].offset == 2

    def test_lookup_previous_empty_when_never_replaced(self):
        cache = ByteCache()
        cache.insert_packet(b"only" * 20, [(0, 9)])
        assert cache.lookup_previous(9) is None

    def test_lookup_previous_invalidated_by_eviction(self):
        cache = ByteCache(byte_budget=250)
        cache.insert_packet(b"a" * 100, [(0, 9)])
        cache.insert_packet(b"b" * 100, [(0, 9)])   # displaces a
        cache.insert_packet(b"c" * 100, [(0, 9)])   # evicts a's payload
        assert cache.lookup_previous(9) is None or \
            cache.lookup_previous(9)[1] == b"b" * 100

    def test_lookup_previous_skips_an_evicted_generation(self):
        cache = ByteCache(byte_budget=250, eviction="lru")
        a_id = cache.insert_packet(b"a" * 100, [(0, 9)])
        cache.insert_packet(b"b" * 100, [(0, 9)])   # displaces a
        cache.store.get(a_id)                       # b is now the LRU
        cache.insert_packet(b"c" * 100, [(0, 9)])   # evicts b, not a
        previous = cache.lookup_previous(9)
        assert previous is not None and previous[1] == b"a" * 100

    def test_flush_clears_history(self):
        cache = ByteCache()
        cache.insert_packet(b"a" * 50, [(0, 9)])
        cache.insert_packet(b"b" * 50, [(0, 9)])
        cache.flush()
        assert cache.lookup_previous(9) is None

    def test_external_id_map_pruned(self):
        cache = ByteCache(byte_budget=1000, max_packets=4)
        for i in range(200):
            cache.insert_packet(b"x" * 100, [(0, i)], external_id=i)
        assert len(cache.store.records) == 4
        assert cache.external_id_for(196) is None        # evicted
        assert cache.external_id_for(197) == 196

    def test_entry_of_an_evicted_packet_reads_no_record(self):
        cache = ByteCache(byte_budget=100)
        cache.insert_packet(b"a" * 80, [(3, 1)], tcp_seq=5, flow=("f",),
                            packet_counter=9, external_id=1)
        cache.insert_packet(b"b" * 80, [(0, 2)])  # evicts the first
        entry = cache.table.get(1)                # dangling, not yet looked up
        assert entry.store_id == 1 and entry.offset == 3
        assert entry.tcp_seq is None and entry.flow is None
        assert entry.packet_counter == 0

    def test_marks_die_with_their_packets(self):
        cache = ByteCache(byte_budget=1000)
        for i in range(10):
            cache.insert_packet(bytes([i]) * 100, [(0, i)])
        for i in range(10):
            assert cache.mark_unusable(i)
        assert cache._unusable_store_ids == set(cache.store.ids())
        cache.evict_fraction(0.7)                 # the eviction storm
        cache.insert_packet(b"z" * 100, [(0, 99)])
        cache.mark_unusable(99)
        assert cache._unusable_store_ids <= set(cache.store.ids())
        assert len(cache._unusable_store_ids) == 4
        assert cache.mark_unusable(0)             # dangling: mark dropped at once
        assert cache._unusable_store_ids <= set(cache.store.ids())


@pytest.mark.parametrize("make", [
    ByteCache,
    lambda **kwargs: ShardedByteCache(n_shards=8, **kwargs),
], ids=["plain", "8-shards"])
class TestOneRecordPerStoredPayload:
    """A packet's record is freed by the eviction that frees its payload."""

    @staticmethod
    def fill(cache, count=60):
        for i in range(count):
            cache.insert_packet(bytes([i]) * 100, [(0, 1000 + i)],
                                tcp_seq=i, external_id=i)

    @staticmethod
    def check(cache):
        store = cache.store
        assert len(store.records) == len(store)
        assert set(store.records) == set(store.ids())

    def test_budget_eviction(self, make):
        cache = make(byte_budget=1600)
        self.fill(cache)
        assert cache.store.evictions > 0
        self.check(cache)

    def test_packet_budget_eviction(self, make):
        cache = make(byte_budget=1 << 20, max_packets=4)
        self.fill(cache, 200)
        assert cache.store.evictions >= 192
        self.check(cache)

    def test_evict_fraction(self, make):
        cache = make(byte_budget=1 << 20)
        self.fill(cache)
        assert cache.evict_fraction(0.5) == 30
        self.check(cache)

    def test_set_byte_budget(self, make):
        cache = make(byte_budget=1 << 20)
        self.fill(cache)
        assert cache.set_byte_budget(1600) > 0
        self.check(cache)

    def test_flush(self, make):
        cache = make(byte_budget=1 << 20)
        self.fill(cache)
        cache.flush()
        assert len(cache.store.records) == 0
        self.check(cache)

    def test_payload_without_anchors_leaves_nothing_behind(self, make):
        cache = make(byte_budget=1 << 20, max_packets=8)
        for i in range(50):
            cache.insert_packet(bytes([i]) * 100, [], external_id=i)
        assert cache.store.evictions >= 42
        self.check(cache)
        assert len(cache.table) == 0 and cache.table._next == 0
