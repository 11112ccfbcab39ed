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

The table never invalidates a reachable entry: when full it either
compacts (keeping, per fingerprint, the newest entry plus the newest
older entry referencing a different stored packet — exactly the
entries reachable through ``get`` and ``previous_entry``) or doubles
capacity.

Newest-wins, insert/replacement counting, ``len`` and lazy removal
match the dict-of-entries table kept as the test oracle
(``tests/reference_cache.py``), which the property tests hold this one
to observable for observable.
"""

from __future__ import annotations

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
        # fingerprint -> previous_entry's answer (an entry id, -1 for
        # none); dropped by every mutation that could change it.  Room
        # making renumbers ids but only ever runs inside insert_batch.
        self._history_memo: Dict[int, int] = {}

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
        if self._history_memo:
            self._history_memo.clear()
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
        if self._history_memo:
            self._history_memo.clear()

    def clear(self) -> None:
        self._index.clear()
        self._history_memo.clear()
        self._next = 0

    def entries(self) -> Iterator[RingEntry]:
        """Snapshots of the *current* entry of every indexed fingerprint."""
        for entry_id in list(self._index.values()):
            yield RingEntry(self, entry_id)

    def previous_entry(self, fingerprint: int) -> Optional[RingEntry]:
        """The newest older entry referencing a *different* packet.

        The decoder's one-generation history fallback: when a reference
        raced a cache update, the displaced entry (same fingerprint,
        previous stored packet) may still resolve it.  The log keeps
        displaced generations in place until compaction, so no
        per-insert displacement tracking is needed — this scans the
        log on demand (the fallback path is rare and checksum-gated).

        One failed fallback asks about the same handful of fingerprints
        a dozen times with no table mutation in between, so the answer
        is remembered until the next :meth:`insert_batch`,
        :meth:`remove` or :meth:`clear`.
        """
        memo = self._history_memo
        entry_id = memo.get(fingerprint)
        if entry_id is None:
            entry_id = memo[fingerprint] = self._scan_previous(fingerprint)
        if entry_id < 0:
            return None
        return RingEntry(self, entry_id)

    def _scan_previous(self, fingerprint: int) -> int:
        """Entry id :meth:`previous_entry` resolves to, or -1."""
        # Compare the live prefix in place: one slice of ``_fps``.
        matches = (self._fps[:self._next] == _U64(fingerprint)).nonzero()[0]
        if len(matches) == 0:
            return -1
        ref_id = self._index.get(fingerprint)
        if ref_id is None:
            # Lazily removed (dangling store): the newest log entry
            # plays the reference role, exactly as a dict-of-entries
            # table keeps its displaced entry after removing the
            # current one.
            ref_id = matches[-1]
        older = matches[matches < ref_id]
        older = older[self._pkt[older] != self._pkt[ref_id]]
        return older.item(-1) if len(older) else -1

    # -- room making: compact, grow ---------------------------------------

    def _make_room(self, n: int) -> None:
        # Reachable entries are bounded by 2 per indexed fingerprint
        # (current + history candidate); compact when that fits in half
        # the log, otherwise double.  Compaction must strictly shrink
        # the live prefix to count as progress — a compact log that
        # still cannot absorb the batch (e.g. a batch wider than the
        # whole capacity) has to fall through to growth or the loop
        # would never terminate.
        while self._next + n > self._capacity:
            compacted = False
            if 4 * len(self._index) <= self._capacity:
                window = self._next
                compacted = self._compact() and self._next < window
            if not compacted:
                self._grow()

    def _reachable_ids(self) -> np.ndarray:
        """Sorted ids of every entry reachable through the public API:
        per fingerprint, the newest entry plus the newest older entry
        with a different stored packet (see :meth:`previous_entry`)."""
        window = self._next
        if window == 0:
            return np.empty(0, dtype=np.int64)
        ids = np.arange(window, dtype=np.int64)
        fps = self._fps[:window]
        order = np.lexsort((ids, fps))
        fps_s = fps[order]
        stores_s = self._pkt[:window][order]
        ids_s = ids[order]
        breaks = np.nonzero(fps_s[1:] != fps_s[:-1])[0]
        group_starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), breaks + 1])
        group_ends = np.concatenate(
            [breaks, np.array([window - 1], dtype=np.int64)])
        # Reference (newest) entry per group, broadcast to positions.
        group_of = np.zeros(window, dtype=np.int64)
        group_of[group_starts[1:]] = 1
        group_of = np.cumsum(group_of)
        ref_store = stores_s[group_ends][group_of]
        positions = np.arange(window, dtype=np.int64)
        candidate = np.where(stores_s != ref_store, positions, -1)
        cand_pos = np.maximum.reduceat(candidate, group_starts)
        cand_pos = cand_pos[cand_pos >= 0]
        keep = np.concatenate([ids_s[group_ends], ids_s[cand_pos]])
        return np.unique(keep)

    def _compact(self) -> bool:
        """Rewrite reachable entries contiguously; False when too full."""
        kept = self._reachable_ids()
        n = len(kept)
        if 2 * n > self._capacity:
            return False
        remap: Dict[int, int] = dict(zip(kept.tolist(), range(n)))
        # The fancy-indexed right-hand sides are copies, so the
        # overlapping prefix writes are safe.
        self._fps[:n] = self._fps[kept]
        self._offsets[:n] = self._offsets[kept]
        self._pkt[:n] = self._pkt[kept]
        self._index = {fp: remap[entry_id]
                       for fp, entry_id in self._index.items()}
        self._next = n
        self.compactions += 1
        return True

    def _grow(self) -> None:
        live = self._next
        self._capacity *= 2
        fps = np.empty(self._capacity, dtype=np.uint64)
        offsets = np.empty(self._capacity, dtype=np.int64)
        pkt = np.empty(self._capacity, dtype=np.int64)
        fps[:live] = self._fps[:live]
        offsets[:live] = self._offsets[:live]
        pkt[:live] = self._pkt[:live]
        self._fps, self._offsets, self._pkt = fps, offsets, pkt
        self.grows += 1
