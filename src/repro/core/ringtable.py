"""Append-log fingerprint table whose index holds §III-B's pointer.

The paper's byte cache is two structures (§III-B, Fig. 2 / Fig. 7): a
packet store and a fingerprint table whose entries name the newest
cached packet holding a fingerprint and the offset of its window in
that packet.  This is the table:

* ``_index`` — fingerprint -> **pointer**, ``store_id << 32 | offset``:
  the entry itself, as one Python int.  A hit reads the store id with
  a shift and the offset with a mask; nothing else is consulted.  One
  packet's pointers are built with one numpy add and one ``tolist``,
  and CPython's dict takes them in one C-speed ``update(zip(...))``.
* ``_fps`` / ``_ptr`` — the append log, one row per inserted anchor
  (fingerprint, pointer).  Only :meth:`~RingFingerprintTable.
  previous_entry` and compaction read it: the log keeps displaced
  generations while their packet is stored, which is the decoder's
  history fallback.
* ``records`` — store id -> :data:`PacketRecord`, what the loss-robust
  algorithms know about a cached *packet* (its TCP ``seq`` for §V-B, a
  packet counter for §V-C).  The dict belongs to the packet store, which
  writes a record with the payload and deletes it with the payload; the
  cache that owns both points ``table.records`` at it.

A pointer whose packet the store no longer holds dangles.  It leaves
the index at the next lookup of its fingerprint (lazy removal in
``ByteCache``) or at the next compaction, whichever comes first: when
full, the log keeps exactly the rows whose packet is stored, the index
drops the keys whose store id has left, and the log doubles only if
the kept rows would still fill more than half of it.

Newest-wins, insert/replacement counting, the ``indexed`` count and
lazy removal match the dict-of-entries table kept as the test oracle
(``tests/reference_cache.py``); the one exception is compaction, which
drops dangling entries the dict table keeps until a lookup.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional, Tuple

import numpy as np

_U64 = np.uint64

#: A pointer is ``store_id << OFFSET_BITS | offset``.
OFFSET_BITS = 32
OFFSET_MASK = (1 << OFFSET_BITS) - 1

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
    (a packet evicted since reads as :data:`NO_RECORD`).
    """

    __slots__ = ("fingerprint", "store_id", "offset", "tcp_seq", "flow",
                 "packet_counter")

    def __init__(self, table: "RingFingerprintTable", fingerprint: int,
                 pointer: int) -> None:
        self.fingerprint = fingerprint
        self.store_id = store_id = pointer >> OFFSET_BITS
        self.offset = pointer & OFFSET_MASK
        self.tcp_seq, self.flow, self.packet_counter, _ = table.records.get(
            store_id, NO_RECORD)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RingEntry(fingerprint={self.fingerprint}, "
                f"store_id={self.store_id}, offset={self.offset}, "
                f"tcp_seq={self.tcp_seq}, flow={self.flow}, "
                f"packet_counter={self.packet_counter})")


class RingFingerprintTable:
    """fingerprint -> newest pointer, over an append-only numpy log."""

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        # Uninitialised on purpose: only rows below _next are ever
        # read, and zero-filling would touch (make resident) the whole
        # log whenever the allocator hands back recycled memory.
        self._fps = np.empty(capacity, dtype=np.uint64)
        self._ptr = np.empty(capacity, dtype=np.int64)
        #: store id -> packet record; the owning cache points this at
        #: its packet store's dict (see the module docstring).
        self.records: Dict[int, PacketRecord] = {}
        self._index: Dict[int, int] = {}
        self._next = 0          # next log row to write
        self.inserts = 0
        self.replacements = 0
        self.compactions = 0
        self.grows = 0

    # -- size and capacity -------------------------------------------------

    @property
    def indexed(self) -> int:
        """Fingerprints in the index, dangling ones included.

        A key whose packet has left the store counts until a lookup
        of it or the next compaction drops it, so this is an upper
        bound on the fingerprints that can still hit.
        """
        return len(self._index)

    @property
    def capacity(self) -> int:
        return self._capacity

    # -- the batched hot path ----------------------------------------------

    def insert_batch(self, offsets: np.ndarray, fps: np.ndarray,
                     store_id: int,
                     fps_list: Optional[List[int]] = None) -> None:
        """Point every ``(offset, fingerprint)`` anchor at one packet.

        Two array fills, one add that turns the offsets into pointers
        in place, and one C-speed bulk index update — no per-anchor
        Python objects.  Later anchors win on duplicate fingerprints
        within the batch, matching the per-entry loop's newest-wins
        order.

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
        pointers = self._ptr[base:base + n]
        pointers[:] = offsets
        pointers += store_id << OFFSET_BITS
        self._next = base + n
        index = self._index
        before = len(index)
        if fps_list is None:
            fps_list = fps.tolist()
        index.update(zip(fps_list, pointers.tolist()))
        self.inserts += n
        self.replacements += n - (len(index) - before)

    # -- scalar API --------------------------------------------------------

    def get(self, fingerprint: int) -> Optional[RingEntry]:
        pointer = self._index.get(fingerprint)
        if pointer is None:
            return None
        return RingEntry(self, fingerprint, pointer)

    def remove(self, fingerprint: int) -> None:
        self._index.pop(fingerprint, None)

    def clear(self) -> None:
        self._index.clear()
        self._next = 0

    @property
    def pointers(self) -> Dict[int, int]:
        """The index itself, fingerprint -> pointer, for read-only
        checkers.  Compaction replaces the dict: read it anew per use."""
        return self._index

    def log_mark(self) -> Tuple[int, int]:
        """``(inserts, next log row)``: where the log stands now, for
        :meth:`rows_since`."""
        return self.inserts, self._next

    def rows_since(self, mark: Tuple[int, int]
                   ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The log rows written since ``mark`` (a :meth:`log_mark`),
        oldest first, as ``(fingerprints, pointers)`` views of the log.

        ``None`` when the log was emptied or renumbered since (a
        :meth:`clear` or a compaction): the rows then no longer line
        up with the insert count.  Growing copies the log in place and
        keeps the rows.
        """
        inserts, row = mark
        if self._next - row != self.inserts - inserts:
            return None
        return self._fps[row:self._next], self._ptr[row:self._next]

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
        records = self.records
        current = self._index.get(fingerprint)
        current_store = -1 if current is None else current >> OFFSET_BITS
        rows = (self._fps[:self._next] == _U64(fingerprint)).nonzero()[0]
        for pointer in reversed(self._ptr[rows].tolist()):
            store_id = pointer >> OFFSET_BITS
            if store_id != current_store and store_id in records:
                return RingEntry(self, fingerprint, pointer)
        return None

    # -- room making: compact to what is stored, else grow ---------------

    def _make_room(self, n: int) -> None:
        """Compact when the rows whose packet is stored, plus the
        batch, fill at most half the log; otherwise double it.

        A pointer whose packet has left the store can never resolve
        again, so compaction keeps exactly the other rows, as a
        prefix, and drops the index keys whose store id has left.
        Either way at least half the log is free afterwards, so each
        row is rewritten O(1) times amortised.
        """
        records = self.records
        stored = np.fromiter(records, dtype=np.int64, count=len(records))
        kept = np.isin(self._ptr[:self._next] >> OFFSET_BITS,
                       stored).nonzero()[0]
        k = len(kept)
        if 2 * (k + n) <= self._capacity:
            # The fancy-indexed right-hand sides are copies, so the
            # overlapping prefix writes are safe.
            self._fps[:k] = self._fps[kept]
            self._ptr[:k] = self._ptr[kept]
            # The index keeps its key order.
            index = self._index
            pointers = np.fromiter(index.values(), dtype=np.int64,
                                   count=len(index))
            survives = np.isin(pointers >> OFFSET_BITS, stored)
            self._index = dict(compress(index.items(), survives.tolist()))
            self._next = k
            self.compactions += 1
            return
        used = self._next
        while used + n > self._capacity:
            self._capacity *= 2
            self.grows += 1
        fps = np.empty(self._capacity, dtype=np.uint64)
        ptr = np.empty(self._capacity, dtype=np.int64)
        fps[:used] = self._fps[:used]
        ptr[:used] = self._ptr[:used]
        self._fps, self._ptr = fps, ptr
