"""The dict-of-entries byte cache and the per-anchor encoder that
``repro.core`` shipped beside the ring table, kept as the differential
reference (ROADMAP: reference variants live in tests, not in ``src/``).

:class:`DictByteCache` is a :class:`ByteCache` whose fingerprint table
is one :class:`CacheEntry` object per fingerprint with explicit
displacement tracking — the pre-ring implementation, statement for
statement.  :class:`PerAnchorEncoder` is Fig. 2 part B as the paper
writes it: one ``cache.lookup()`` and one policy verdict per anchor, no
pre-resolved ids, so it runs over either cache.  The parity suites
(``test_shardcache``, ``test_ringtable``, ``test_per_record_eligibility``,
``test_anchor_resolve``, ``test_verify``) hold the production pair to
them observable for observable.
"""

from typing import Dict, Iterator, Optional, Tuple

from repro.core.cache import ByteCache
from repro.core.encoder import ByteCachingEncoder
from repro.core.region import Region, expand_bounds
from repro.core.ringtable import NO_RECORD
from repro.core.wire import MIN_REGION_LENGTH


class CacheEntry:
    """One fingerprint-table entry."""

    __slots__ = ("fingerprint", "store_id", "offset", "tcp_seq", "flow",
                 "packet_counter")

    def __init__(self, fingerprint: int, store_id: int, offset: int,
                 tcp_seq: Optional[int] = None,
                 flow: Optional[tuple] = None,
                 packet_counter: int = 0) -> None:
        self.fingerprint = fingerprint
        self.store_id = store_id          # key into the PacketStore
        self.offset = offset              # fingerprint window offset in payload
        self.tcp_seq = tcp_seq            # §V-B: seq of the cached segment
        self.flow = flow                  # flow identity of the cached segment
        self.packet_counter = packet_counter  # §V-C: monotone packet index

    def __repr__(self) -> str:
        return (f"CacheEntry(fingerprint={self.fingerprint}, "
                f"store_id={self.store_id}, offset={self.offset}, "
                f"tcp_seq={self.tcp_seq}, flow={self.flow}, "
                f"packet_counter={self.packet_counter})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheEntry):
            return NotImplemented
        return (self.fingerprint == other.fingerprint
                and self.store_id == other.store_id
                and self.offset == other.offset
                and self.tcp_seq == other.tcp_seq
                and self.flow == other.flow
                and self.packet_counter == other.packet_counter)


class FingerprintTable:
    """fingerprint -> :class:`CacheEntry`, newest-wins."""

    def __init__(self) -> None:
        self._table: Dict[int, CacheEntry] = {}
        self.inserts = 0
        self.replacements = 0

    @property
    def indexed(self) -> int:
        """Fingerprints in the table, dangling ones included (an entry
        whose packet was evicted stays until a lookup removes it)."""
        return len(self._table)

    def put(self, entry: CacheEntry) -> None:
        """Insert or replace the entry for ``entry.fingerprint``."""
        if entry.fingerprint in self._table:
            self.replacements += 1
        self.inserts += 1
        self._table[entry.fingerprint] = entry

    def get(self, fingerprint: int) -> Optional[CacheEntry]:
        return self._table.get(fingerprint)

    def remove(self, fingerprint: int) -> None:
        self._table.pop(fingerprint, None)

    def clear(self) -> None:
        self._table.clear()

    def entries(self) -> Iterator[CacheEntry]:
        return iter(self._table.values())


class DictByteCache(ByteCache):
    """:class:`ByteCache` over a :class:`FingerprintTable`."""

    def __init__(self, byte_budget: int = 4 * 1024 * 1024,
                 max_packets: Optional[int] = None,
                 eviction: str = "fifo") -> None:
        super().__init__(byte_budget, max_packets, eviction)
        self.table = FingerprintTable()
        # One generation of history: when a fingerprint's entry is
        # replaced, the displaced entry is kept here.  Decoders use it
        # to resolve references made against a slightly older cache
        # state (the encoder's view can lag by up to one RTT).
        self._previous_entries: Dict[int, CacheEntry] = {}
        # Size of _previous_entries that triggers the next prune.
        self._prune_at = 64

    def insert_packet(self, payload, anchors, tcp_seq=None, flow=None,
                      packet_counter=0, external_id=None) -> int:
        store_id = self.store.add(
            payload, (tcp_seq, flow, packet_counter, external_id))
        if len(self._previous_entries) > self._prune_at:
            self._prune_previous_entries()
        pairs = anchors.pairs() if hasattr(anchors, "pairs") else anchors
        if not hasattr(pairs, "__len__"):
            pairs = list(pairs)
        table = self.table
        entries = table._table
        previous = self._previous_entries
        replaced = 0
        for offset, fingerprint in pairs:
            displaced = entries.get(fingerprint)
            if displaced is not None:
                replaced += 1
                if displaced.store_id != store_id:
                    previous[fingerprint] = displaced
            entries[fingerprint] = CacheEntry(fingerprint, store_id, offset,
                                              tcp_seq, flow, packet_counter)
        table.inserts += len(pairs)
        table.replacements += replaced
        return store_id

    def lookup(self, fingerprint: int) -> Optional[Tuple[CacheEntry, bytes]]:
        entry = self.table.get(fingerprint)
        if entry is None:
            return None
        payload = self.store.get(entry.store_id)
        if payload is None:
            self.table.remove(fingerprint)
            return None
        return entry, payload

    def lookup_view(self, fingerprint: int) -> Optional[memoryview]:
        hit = self.lookup(fingerprint)
        if hit is None:
            return None
        return memoryview(hit[1])

    def lookup_previous(self, fingerprint: int
                        ) -> Optional[Tuple[CacheEntry, bytes]]:
        entry = self._previous_entries.get(fingerprint)
        if entry is None:
            return None
        payload = self.store.get(entry.store_id)
        if payload is None:
            self._previous_entries.pop(fingerprint, None)
            return None
        return entry, payload

    def flush(self) -> None:
        super().flush()
        self._previous_entries.clear()

    def _prune_previous_entries(self) -> None:
        live = self.store.records
        self._previous_entries = {
            fp: entry for fp, entry in self._previous_entries.items()
            if entry.store_id in live}
        self._prune_at = 4 * len(self._previous_entries) + 64


class PerAnchorEncoder(ByteCachingEncoder):
    """Fig. 2 part B with the cache and the policy consulted for every
    anchor, over any cache that answers ``lookup()``."""

    def _candidate_pairs(self, anchors):
        return anchors

    def _find_regions(self, payload, anchors, meta):
        regions, dependencies, pos, matched = [], set(), 0, 0
        for offset, fingerprint in anchors.pairs():
            if offset < pos:
                continue
            hit = self.cache.lookup(fingerprint)
            if hit is None:
                continue
            entry, stored = hit
            if not self.policy.entry_eligible(entry, meta):
                self.stats.ineligible_hits += 1
                continue
            bounds = expand_bounds(payload, offset, stored, entry.offset,
                                   self.scheme.window, pos)
            if bounds is None:
                self.stats.collisions += 1
                continue
            offset_new, offset_stored, length = bounds
            if length <= MIN_REGION_LENGTH:
                continue
            if not self.policy.region_acceptable(length, len(payload), meta):
                self.stats.ineligible_hits += 1
                continue
            regions.append(Region(fingerprint, offset_new, offset_stored,
                                  length))
            external = self.cache.store.records.get(entry.store_id,
                                                    NO_RECORD)[3]
            if external is not None:
                dependencies.add(external)
            pos = offset_new + length
            matched += length
        return regions, dependencies, matched
