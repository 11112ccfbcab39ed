"""Append-log fingerprint table: entries live in parallel arrays and an
entry's id is its slot.

The paper's byte cache is two structures (§III-B, Fig. 2 / Fig. 7): a
packet store and a fingerprint table whose entries point into it.  This
is the table.  A dict of per-entry objects would cost one allocation
and two dict probes per anchor per cached packet — millions per sweep —
so entries are rows of three numpy arrays instead:

* ``_fps`` / ``_offsets`` / ``_pkt`` — fingerprint, window offset and
  the **store id** of the cached packet, indexed by entry id.  Ids
  ``0 .. _next - 1`` are live; inserts append.
* ``_index`` — fingerprint -> newest entry id.  CPython dicts are
  open-addressed hash tables with C-speed bulk operations
  (``update(zip(...))``), which measured faster than a hand-rolled
  numpy open-addressed probe for this scalar-probe mix.
* ``records`` — store id -> :data:`PacketRecord`, what the loss-robust
  algorithms know about a cached *packet* (its TCP ``seq`` for §V-B, a
  packet counter for §V-C).  The dict belongs to the packet store, which
  writes a record with the payload and deletes it with the payload; the
  cache that owns both points ``table.records`` at it.  The table only
  reads it, so per-packet state is bounded by the byte budget.

The index is the only membership structure: the encoder resolves a
whole packet's anchors against it with one ``map(index.get, ...)`` (a
C loop), and nothing sits in front of it — a vectorised prefilter
measured dearer than the misses it saved (DESIGN.md §13).

An entry whose packet the store no longer holds can never resolve
again.  Such a dangling entry leaves the index at the next lookup of
its fingerprint (lazy removal in ``ByteCache``) or at the next
compaction, whichever comes first: when full, the log keeps exactly the
entries whose packet is stored, and doubles only if they would still
fill more than half of it.

Newest-wins, insert/replacement counting, ``len`` and lazy removal
match the dict-of-entries table kept as the test oracle
(``tests/reference_cache.py``), which the property tests hold this one
to observable for observable; the one exception is compaction, which
drops dangling entries the dict table keeps until a lookup.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

_U64 = np.uint64

#: What is stored once per cached packet:
#: ``(tcp_seq, flow, packet_counter, packet_id)``.
PacketRecord = Tuple[Optional[int], Optional[tuple], int, Optional[int]]

#: What reads back for a packet the store no longer holds (or one
#: stored with nothing recorded).
NO_RECORD: PacketRecord = (None, None, 0, None)


class RingEntry:
    """Snapshot of one table entry and of the packet it points at.

    Allocated only for fingerprints that *hit* — the miss path never
    materialises an entry.  The per-packet facts are read once, here
    (a packet evicted since reads as :data:`NO_RECORD`); ``fingerprint``
    and ``offset`` go to the table's arrays.
    """

    __slots__ = ("_table", "_id", "store_id", "tcp_seq", "flow",
                 "packet_counter")

    def __init__(self, table: "RingFingerprintTable", entry_id: int) -> None:
        self._table = table
        self._id = entry_id
        self.store_id = store_id = table._pkt.item(entry_id)
        self.tcp_seq, self.flow, self.packet_counter, _ = table.records.get(
            store_id, NO_RECORD)

    @property
    def fingerprint(self) -> int:
        return self._table._fps.item(self._id)

    @property
    def offset(self) -> int:
        return self._table._offsets.item(self._id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RingEntry(fingerprint={self.fingerprint}, "
                f"store_id={self.store_id}, offset={self.offset}, "
                f"tcp_seq={self.tcp_seq}, flow={self.flow}, "
                f"packet_counter={self.packet_counter})")


class RingFingerprintTable:
    """fingerprint -> newest entry, backed by append-only numpy arrays."""

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        # Uninitialised on purpose: only slots of live ids are ever
        # read, and zero-filling would touch (make resident) the whole
        # log whenever the allocator hands back recycled memory.
        self._fps = np.empty(capacity, dtype=np.uint64)
        self._offsets = np.empty(capacity, dtype=np.int64)
        self._pkt = np.empty(capacity, dtype=np.int64)
        #: store id -> packet record; the owning cache points this at
        #: its packet store's dict (see the module docstring).
        self.records: Dict[int, PacketRecord] = {}
        self._index: Dict[int, int] = {}
        self._next = 0          # next entry id to assign
        self.inserts = 0
        self.replacements = 0
        self.compactions = 0
        self.grows = 0

    # -- size and capacity -------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    @property
    def capacity(self) -> int:
        return self._capacity

    # -- the batched hot path ----------------------------------------------

    def insert_batch(self, offsets: np.ndarray, fps: np.ndarray,
                     store_id: int,
                     fps_list: Optional[List[int]] = None) -> None:
        """Point every ``(offset, fingerprint)`` anchor at one packet.

        Three vectorised array fills plus one C-speed bulk index update
        — no per-anchor Python objects.  Later anchors win on duplicate
        fingerprints within the batch, matching the per-entry loop's
        newest-wins order.

        ``fps_list``, when given, must be ``fps.tolist()`` — callers
        that already materialised it (the encoder probes the same
        fingerprints before inserting) pass it in to skip a second
        conversion.
        """
        n = len(fps)
        if n == 0:
            return
        if self._next + n > self._capacity:
            self._make_room(n)
        base = self._next
        self._fps[base:base + n] = fps
        self._offsets[base:base + n] = offsets
        self._pkt[base:base + n] = store_id
        self._next = base + n
        index = self._index
        before = len(index)
        if fps_list is None:
            fps_list = fps.tolist()
        index.update(zip(fps_list, range(base, base + n)))
        self.inserts += n
        self.replacements += n - (len(index) - before)

    # -- scalar API --------------------------------------------------------

    def get(self, fingerprint: int) -> Optional[RingEntry]:
        entry_id = self._index.get(fingerprint)
        if entry_id is None:
            return None
        return RingEntry(self, entry_id)

    def remove(self, fingerprint: int) -> None:
        self._index.pop(fingerprint, None)

    def clear(self) -> None:
        self._index.clear()
        self._next = 0

    def entries(self) -> Iterator[RingEntry]:
        """Snapshots of the *current* entry of every indexed fingerprint."""
        for entry_id in list(self._index.values()):
            yield RingEntry(self, entry_id)

    def previous_entry(self, fingerprint: int) -> Optional[RingEntry]:
        """The newest entry for ``fingerprint`` whose packet is stored
        and is not the packet of the current entry.

        The decoder's history fallback: when a reference raced a cache
        update, a displaced generation (same fingerprint, another
        stored packet) may still resolve it.  The log keeps displaced
        generations in place while their packet is stored, so no
        per-insert displacement tracking is needed: one scan of the
        live prefix, newest first, on demand (the fallback path is rare
        and checksum-gated).
        """
        pkt = self._pkt
        records = self.records
        current = self._index.get(fingerprint)
        current_store = -1 if current is None else pkt.item(current)
        matches = (self._fps[:self._next] == _U64(fingerprint)).nonzero()[0]
        for entry_id in reversed(matches.tolist()):
            store_id = pkt.item(entry_id)
            if store_id != current_store and store_id in records:
                return RingEntry(self, entry_id)
        return None

    # -- room making: compact to what is stored, else grow ---------------

    def _make_room(self, n: int) -> None:
        """Compact when the entries whose packet is stored, plus the
        batch, fill at most half the log; otherwise double it.

        An entry whose packet has left the store can never resolve
        again, so compaction keeps exactly the others, as a prefix, and
        drops the index entries whose slot did not survive.  Either way
        at least half the log is free afterwards, so each slot is
        rewritten O(1) times amortised.
        """
        records = self.records
        stored = np.fromiter(records, dtype=np.int64, count=len(records))
        kept = np.isin(self._pkt[:self._next], stored).nonzero()[0]
        k = len(kept)
        if 2 * (k + n) <= self._capacity:
            # The fancy-indexed right-hand sides are copies, so the
            # overlapping prefix writes are safe.
            self._fps[:k] = self._fps[kept]
            self._offsets[:k] = self._offsets[kept]
            self._pkt[:k] = self._pkt[kept]
            # Old id -> new id (-1: dropped), applied to the index values
            # in one gather; the index keeps its key order.
            remap = np.full(self._next, -1, dtype=np.int64)
            remap[kept] = np.arange(k)
            index = self._index
            ids = remap[np.fromiter(index.values(), dtype=np.int64,
                                    count=len(index))]
            survives = ids >= 0
            self._index = dict(zip(compress(index, survives.tolist()),
                                   ids[survives].tolist()))
            self._next = k
            self.compactions += 1
            return
        used = self._next
        while used + n > self._capacity:
            self._capacity *= 2
            self.grows += 1
        fps = np.empty(self._capacity, dtype=np.uint64)
        offsets = np.empty(self._capacity, dtype=np.int64)
        pkt = np.empty(self._capacity, dtype=np.int64)
        fps[:used] = self._fps[:used]
        offsets[:used] = self._offsets[:used]
        pkt[:used] = self._pkt[:used]
        self._fps, self._offsets, self._pkt = fps, offsets, pkt
