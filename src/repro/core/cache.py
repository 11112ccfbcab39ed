"""Encoder/decoder byte caches.

Two cooperating structures, as in Spring & Wetherall:

* :class:`PacketStore` — the payload cache: recently seen packet
  payloads, evicted FIFO under a byte budget (and optionally a packet
  budget, which is how Table I's "window of k packets" is expressed).
  Each payload is stored with its *packet record* (TCP seq, flow,
  packet counter, originating packet id), and the eviction that frees
  the payload frees the record.
* :class:`~repro.core.ringtable.RingFingerprintTable` — fingerprint ->
  newest packet containing it.  §III-B: entries are *replaced* when a
  newer packet contains the same fingerprint, and the byte offset of
  the fingerprint inside the payload is stored alongside so match
  expansion starts instantly.

:class:`ByteCache` joins the two.  An entry whose packet has been
evicted from the store dangles: it leaves the table at the next lookup
of its fingerprint or at the table's next compaction, whichever comes
first.
"""

from __future__ import annotations

import itertools
import zlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set, Tuple, Union

import numpy as np

from .polyhash import AnchorSet
from .ringtable import (NO_RECORD, PacketRecord, RingEntry,
                        RingFingerprintTable)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .shardcache import ShardedPacketStore


class PacketStore:
    """Byte-budgeted store of packet payloads.

    Eviction is FIFO by default (Spring & Wetherall's choice — the
    cache is a sliding window over the stream).  ``eviction="lru"``
    keeps hot payloads alive instead; the difference is measured by
    ``benchmarks/bench_cache_policy.py``.
    """

    def __init__(self, byte_budget: int = 4 * 1024 * 1024,
                 max_packets: Optional[int] = None,
                 eviction: str = "fifo") -> None:
        if byte_budget <= 0:
            raise ValueError("byte_budget must be positive")
        if max_packets is not None and max_packets <= 0:
            raise ValueError("max_packets must be positive")
        if eviction not in ("fifo", "lru"):
            raise ValueError(f"unknown eviction policy: {eviction!r}")
        self.byte_budget = byte_budget
        self.max_packets = max_packets
        self.eviction = eviction
        self._lru = eviction == "lru"
        self._data: "OrderedDict[int, bytes]" = OrderedDict()
        #: store id -> packet record, for exactly the ids in ``_data``.
        self.records: Dict[int, PacketRecord] = {}
        self._bytes = 0
        self._ids = itertools.count(1)
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def add(self, payload: bytes, record: PacketRecord = NO_RECORD,
            route: Optional[int] = None) -> int:
        """Store a payload and its record; returns its store id.  May
        evict old entries.

        ``route`` (the payload's first anchor fingerprint) is a
        placement key for stores with more than one home; a single
        store has nowhere to route and ignores it.
        """
        store_id = next(self._ids)
        self._data[store_id] = payload
        self.records[store_id] = record
        self._bytes += len(payload)
        if self._bytes > self.byte_budget or self.max_packets is not None:
            self._evict()
        return store_id

    def get(self, store_id: int) -> Optional[bytes]:
        payload = self._data.get(store_id)
        if payload is not None and self._lru:
            self._data.move_to_end(store_id)
        return payload

    def peek(self, store_id: int) -> Optional[bytes]:
        """A stored payload without the LRU side effect of :meth:`get`
        (for checkers, which must not perturb eviction order)."""
        return self._data.get(store_id)

    def view(self, store_id: int) -> Optional[memoryview]:
        """Zero-copy view of a stored payload.

        Region reads during decoding splice slices of stored payloads
        into the reconstruction buffer; serving them as memoryviews
        avoids one intermediate ``bytes`` copy per region.  (Views are
        *not* used for byte comparisons — ``memoryview.__eq__`` is
        slower than the C fast path of ``bytes.__eq__``; see DESIGN.md
        §13.)
        """
        payload = self._data.get(store_id)
        if payload is None:
            return None
        if self._lru:
            self._data.move_to_end(store_id)
        return memoryview(payload)

    def __contains__(self, store_id: int) -> bool:
        return store_id in self._data

    def clear(self) -> None:
        # One by one: sharded homes share the records dict.
        for store_id in self._data:
            del self.records[store_id]
        self._data.clear()
        self._bytes = 0

    def set_byte_budget(self, byte_budget: int) -> int:
        """Re-cap the store, evicting immediately down to the new budget.

        Returns how many payloads the re-cap evicted — the "eviction
        storm" a memory-pressure fault measures.  Raising the budget
        back later evicts nothing and brings nothing back.
        """
        if byte_budget <= 0:
            raise ValueError("byte_budget must be positive")
        before = self.evictions
        self.byte_budget = byte_budget
        self._evict()
        return self.evictions - before

    def evict_oldest(self, count: int) -> int:
        """Force out up to ``count`` oldest payloads; returns how many.

        Used by the asymmetric-eviction fault action: evicting from one
        gateway's store only reproduces a cache divergence no per-packet
        policy can repair (the resilience layer's watchdog can).
        """
        evicted = 0
        while self._data and evicted < count:
            store_id, payload = self._data.popitem(last=False)
            del self.records[store_id]
            self._bytes -= len(payload)
            self.evictions += 1
            evicted += 1
        return evicted

    def ids(self) -> Iterator[int]:
        return iter(self._data.keys())

    def _evict(self) -> None:
        while self._bytes > self.byte_budget or (
                self.max_packets is not None and len(self._data) > self.max_packets):
            store_id, payload = self._data.popitem(last=False)
            del self.records[store_id]
            self._bytes -= len(payload)
            self.evictions += 1


#: Ring sizing.  Value sampling selects one anchor per 16 payload bytes
#: (§III-B: k = 4) and a packet is at most an MTU, so a byte / packet
#: budget bounds the anchors a full cache indexes.  The ceiling is what
#: both directions of the paper's file1 need (2 x 36.7 k anchors) and no
#: more: a ring of 2**20 slots (24 MB of arrays) per 16 MB cache
#: measured +4 % to +23 % peak RSS over a 28 s benchmark run.  A cache
#: that outgrows its ring compacts or doubles.
_BYTES_PER_ANCHOR = 16
_MTU = 1500
_MIN_RING = 1 << 10
_MAX_RING = 1 << 17


def _ring_capacity(byte_budget: int, max_packets: Optional[int]) -> int:
    """Power-of-two ring capacity for a store with these budgets."""
    if max_packets is not None:
        byte_budget = min(byte_budget, max_packets * _MTU)
    anchors = min(max(byte_budget // _BYTES_PER_ANCHOR, _MIN_RING), _MAX_RING)
    return 1 << (anchors - 1).bit_length()


class ByteCache:
    """The combined cache used by an encoder or decoder gateway.

    ``table`` is the fingerprint index, ``store`` the payload side: one
    :class:`PacketStore` here, N routed ones under
    :class:`~repro.core.shardcache.ShardedByteCache`, which inherits
    every method below unchanged.  ``admission`` is the fraction of
    payloads admitted, decided by a content-keyed coin (:meth:`_admit`).
    """

    def __init__(self, byte_budget: int = 4 * 1024 * 1024,
                 max_packets: Optional[int] = None,
                 eviction: str = "fifo",
                 admission: float = 1.0) -> None:
        if not 0.0 < admission <= 1.0:
            raise ValueError(f"admission must be in (0, 1], got {admission}")
        self.admission = admission
        self.store: "Union[PacketStore, ShardedPacketStore]" = PacketStore(
            byte_budget, max_packets, eviction)
        self.table = RingFingerprintTable(
            _ring_capacity(byte_budget, max_packets))
        self.table.records = self.store.records
        self.flushes = 0
        #: Cache generation, stamped onto encoded packets by gateways
        #: running the resilience layer (see repro.gateway.resilience).
        #: Bumped explicitly on resync — NOT by flush(), because the
        #: Cache Flush policy flushes on every retransmission without
        #: the caches diverging.
        self.epoch = 0
        #: Payloads the admission coin declined to cache.
        self.admission_rejected = 0
        #: Store ids of cached packets informed marking has vetoed.
        self._unusable_store_ids: Set[int] = set()

    def _admit(self, payload: bytes) -> bool:
        # Content-keyed coin: both gateways flip identically for the
        # same bytes, independent of arrival order or loss between
        # them.  (A sequence-keyed coin would silently desynchronise
        # the caches on the first dropped packet.)
        threshold = int(self.admission * 0xFFFFFFFF)
        return (zlib.crc32(payload) & 0xFFFFFFFF) <= threshold

    def insert_packet(self, payload: bytes,
                      anchors: list,
                      tcp_seq: Optional[int] = None,
                      flow: Optional[tuple] = None,
                      packet_counter: int = 0,
                      external_id: Optional[int] = None) -> int:
        """Cache ``payload`` and point all its anchors at it.

        This is the Cache Update Procedure of Fig. 2 / Fig. 7: each
        selected fingerprint's table entry is replaced to reference the
        new packet.  Returns the payload's store id, or ``0`` when the
        admission coin declined it.
        """
        if self.admission < 1.0 and not self._admit(payload):
            self.admission_rejected += 1
            return 0
        # Anchors stay numpy end-to-end; one packet record plus
        # vectorised array fills, no per-anchor objects.  Displaced
        # generations stay in the log while their packet is stored, so
        # the history fallback needs no per-insert tracking either.
        if type(anchors) is AnchorSet:
            offsets = anchors.offsets
            fps = anchors.fingerprints
            fps_list = anchors.fps_list()
        else:
            pairs = anchors if hasattr(anchors, "__len__") else list(anchors)
            fps_list = [pair[1] for pair in pairs]
            offsets = np.fromiter((pair[0] for pair in pairs),
                                  dtype=np.int64, count=len(pairs))
            fps = np.array(fps_list, dtype=np.uint64)
        store_id = self.store.add(
            payload, (tcp_seq, flow, packet_counter, external_id),
            fps_list[0] if fps_list else None)
        self.table.insert_batch(offsets, fps, store_id, fps_list)
        return store_id

    def lookup(self, fingerprint: int) -> Optional[Tuple[RingEntry, bytes]]:
        """Return (entry, cached payload) or None.

        Entries pointing at evicted payloads are removed lazily.  The
        checks run against the table arrays so the (common) miss and
        filtered cases never materialise a :class:`RingEntry` view.
        """
        ring = self.table
        entry_id = ring._index.get(fingerprint)
        if entry_id is None:
            return None
        store_id = ring._pkt.item(entry_id)
        if store_id in self._unusable_store_ids:
            return None
        payload = self.store.get(store_id)
        if payload is None:
            ring.remove(fingerprint)
            return None
        return RingEntry(ring, entry_id), payload

    def lookup_view(self, fingerprint: int) -> Optional[memoryview]:
        """Zero-copy variant of :meth:`lookup` for region reads.

        Decoders splicing matched regions into a reconstruction buffer
        need only the stored payload bytes, not the table entry;
        serving them as a :class:`memoryview` (see
        :meth:`PacketStore.view`) skips one intermediate copy per
        referenced region.
        """
        ring = self.table
        entry_id = ring._index.get(fingerprint)
        if entry_id is None:
            return None
        store_id = ring._pkt.item(entry_id)
        if store_id in self._unusable_store_ids:
            return None
        view = self.store.view(store_id)
        if view is None:
            ring.remove(fingerprint)
        return view

    def lookup_previous(self, fingerprint: int) -> Optional[Tuple[RingEntry, bytes]]:
        """The newest displaced entry for a fingerprint whose packet is
        still stored (:meth:`RingFingerprintTable.previous_entry`).

        Used by decoders to resolve references encoded against a cache
        state from before a replacement.
        """
        entry = self.table.previous_entry(fingerprint)
        if entry is None or entry.store_id in self._unusable_store_ids:
            return None
        payload = self.store.get(entry.store_id)
        if payload is None:
            return None
        return entry, payload

    def external_id_for(self, store_id: int) -> Optional[int]:
        """Originating packet id of a stored payload (for dependency
        tracking in the metrics layer), if one was recorded."""
        return self.store.records.get(store_id, NO_RECORD)[3]

    def flush(self) -> None:
        """Drop everything (the Cache Flush policy's reset, §V-A)."""
        self.store.clear()
        self.table.clear()
        self._unusable_store_ids.clear()
        self.flushes += 1

    def bump_epoch(self) -> int:
        """Advance the cache generation (resync protocol commit point)."""
        self.epoch += 1
        return self.epoch

    def set_byte_budget(self, byte_budget: int) -> int:
        """Re-cap the packet store's byte budget; returns evictions forced.

        The memory-pressure half of the chaos faults (and the first
        brick of serving many users from one box: per-tenant budgets
        squeezed at runtime).  Fingerprint-table entries left dangling
        by the storm leave at the next lookup or the next compaction,
        exactly as for ordinary budget-driven eviction.
        """
        return self.store.set_byte_budget(byte_budget)

    def evict_fraction(self, fraction: float) -> int:
        """Evict the oldest ``fraction`` of stored payloads; returns count.

        Dangling fingerprint-table entries leave at the next lookup or
        the next compaction, exactly as for budget-driven eviction.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        return self.store.evict_oldest(int(len(self.store) * fraction))

    def mark_unusable(self, fingerprint: int) -> bool:
        """Informed marking: forbid encodings against the packet this
        fingerprint currently resolves to.

        The unit of marking is the *cached packet* (Lumezanu et al.
        mark lost packets), so every other fingerprint resolving to the
        same payload is disabled too — otherwise the encoder would just
        re-reference the lost packet through one of its other anchors.
        Marks die with their packet: the set is cut back to the stored
        ids here, on the rare (NACK-driven) path that grows it.
        """
        entry = self.table.get(fingerprint)
        if entry is None:
            return False
        self._unusable_store_ids.add(entry.store_id)
        self._unusable_store_ids &= self.store.records.keys()
        return True
