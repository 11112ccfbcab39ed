"""Contiguous ring-buffer fingerprint table.

A dict of per-entry objects would cost one allocation and two dict
probes per anchor per cached packet — millions per sweep.  This module
stores entries in parallel numpy arrays instead and addresses them by
a monotone *entry id*:

* ``_fps`` / ``_offsets`` / ``_pkt`` — per-entry arrays, indexed by
  ``id & _mask`` (capacity is a power of two).  ``_pkt`` points into
  per-insert *packet records* (store id, tcp seq, flow, counter are
  identical for every anchor of one cached packet, so they are stored
  once per packet, not once per anchor).
* ``_index`` — fingerprint -> newest entry id.  CPython dicts are
  open-addressed hash tables with C-speed bulk operations
  (``update(zip(...))``), which measured faster than a hand-rolled
  numpy open-addressed probe for this scalar-probe mix.

The index is the only membership structure: the encoder resolves a
whole packet's anchors against it with one ``map(index.get, ...)`` (a
C loop), and nothing sits in front of it — a vectorised prefilter
measured dearer than the misses it saved (DESIGN.md §13).

Ids ``0 .. _next - 1`` are live and ``_next`` never exceeds the
capacity, so an id is its own slot (the mask is the identity; see
ROADMAP).  The table never invalidates a reachable entry: when full it
either compacts (keeping, per fingerprint, the newest entry plus the
newest older entry referencing a different stored packet — exactly the
entries reachable through ``get`` and ``previous_entry``) or doubles
capacity.

Newest-wins, insert/replacement counting, ``len`` and lazy removal
match the dict-of-entries table kept as the test oracle
(``tests/reference_cache.py``), which the property tests hold this one
to observable for observable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

import numpy as np

_U64 = np.uint64


class RingEntry:
    """View of one ring-table entry.

    Allocated only for fingerprints that *hit* — the miss path never
    materialises an entry.  Attribute reads go straight to the table's
    arrays; ``usable`` writes through (informed marking).
    """

    __slots__ = ("_table", "_id", "_slot")

    def __init__(self, table: "RingFingerprintTable", entry_id: int) -> None:
        self._table = table
        self._id = entry_id
        self._slot = entry_id & table._mask

    @property
    def fingerprint(self) -> int:
        return int(self._table._fps[self._slot])

    @property
    def offset(self) -> int:
        return int(self._table._offsets[self._slot])

    @property
    def store_id(self) -> int:
        return self._table._rec_store[self._table._pkt[self._slot]]

    @property
    def tcp_seq(self) -> Optional[int]:
        return self._table._rec_seq[self._table._pkt[self._slot]]

    @property
    def flow(self) -> Optional[tuple]:
        return self._table._rec_flow[self._table._pkt[self._slot]]

    @property
    def packet_counter(self) -> int:
        return self._table._rec_counter[self._table._pkt[self._slot]]

    @property
    def usable(self) -> bool:
        return self._id not in self._table._unusable_ids

    @usable.setter
    def usable(self, value: bool) -> None:
        if value:
            self._table._unusable_ids.discard(self._id)
        else:
            self._table._unusable_ids.add(self._id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RingEntry(fingerprint={self.fingerprint}, "
                f"store_id={self.store_id}, offset={self.offset}, "
                f"tcp_seq={self.tcp_seq}, flow={self.flow}, "
                f"packet_counter={self.packet_counter}, "
                f"usable={self.usable})")


class RingFingerprintTable:
    """fingerprint -> newest entry, backed by ring-buffer numpy arrays."""

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 2 or capacity & (capacity - 1):
            raise ValueError(f"capacity must be a power of two >= 2, "
                             f"got {capacity}")
        self._capacity = capacity
        self._mask = capacity - 1
        # Uninitialised on purpose: only slots of live ids are ever
        # read, and zero-filling would touch (make resident) the whole
        # ring whenever the allocator hands back recycled memory.
        self._fps = np.empty(capacity, dtype=np.uint64)
        self._offsets = np.empty(capacity, dtype=np.int64)
        self._pkt = np.empty(capacity, dtype=np.int64)
        # Per-insert packet records (shared by every anchor of a packet).
        self._rec_store: List[int] = []
        self._rec_seq: List[Optional[int]] = []
        self._rec_flow: List[Optional[tuple]] = []
        self._rec_counter: List[int] = []
        self._index: Dict[int, int] = {}
        self._next = 0          # next entry id to assign
        self._unusable_ids: Set[int] = set()
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
                     store_id: int, tcp_seq: Optional[int],
                     flow: Optional[tuple], packet_counter: int,
                     fps_list: Optional[List[int]] = None) -> None:
        """Point every ``(offset, fingerprint)`` anchor at one packet.

        One packet record plus three vectorised array fills plus one
        C-speed bulk index update — no per-anchor Python objects.
        Later anchors win on duplicate fingerprints within the batch,
        matching the per-entry loop's newest-wins order.

        ``fps_list``, when given, must be ``fps.tolist()`` — callers
        that already materialised it (the encoder probes the same
        fingerprints before inserting) pass it in to skip a second
        conversion.
        """
        n = len(fps)
        rec = len(self._rec_store)
        self._rec_store.append(store_id)
        self._rec_seq.append(tcp_seq)
        self._rec_flow.append(flow)
        self._rec_counter.append(packet_counter)
        if n == 0:
            return
        if self._history_memo:
            self._history_memo.clear()
        if self._next + n > self._capacity:
            self._make_room(n)
        base = self._next
        self._fps[base:base + n] = fps
        self._offsets[base:base + n] = offsets
        self._pkt[base:base + n] = rec
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

    def get_id(self, fingerprint: int) -> Optional[int]:
        """Newest entry id for a fingerprint (internal fast probes)."""
        return self._index.get(fingerprint)

    def remove(self, fingerprint: int) -> None:
        self._index.pop(fingerprint, None)
        if self._history_memo:
            self._history_memo.clear()

    def clear(self) -> None:
        self._index.clear()
        self._rec_store.clear()
        self._rec_seq.clear()
        self._rec_flow.clear()
        self._rec_counter.clear()
        self._unusable_ids.clear()
        self._history_memo.clear()
        self._next = 0

    def entries(self) -> Iterator[RingEntry]:
        """Views of the *current* entry of every indexed fingerprint."""
        for entry_id in list(self._index.values()):
            yield RingEntry(self, entry_id)

    def previous_entry(self, fingerprint: int) -> Optional[RingEntry]:
        """The newest older entry referencing a *different* packet.

        The decoder's one-generation history fallback: when a reference
        raced a cache update, the displaced entry (same fingerprint,
        previous stored packet) may still resolve it.  The ring keeps
        displaced generations in place until compaction, so no
        per-insert displacement tracking is needed — this scans the
        ring on demand (the fallback path is rare and checksum-gated).

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
        # Compare the live window in place: one slice of ``_fps``.
        matches = (self._fps[:self._next] == _U64(fingerprint)).nonzero()[0]
        if len(matches) == 0:
            return -1
        ref_id = self._index.get(fingerprint)
        if ref_id is None:
            # Lazily removed (dangling store): the newest ring entry
            # plays the reference role, exactly as a dict-of-entries
            # table keeps its displaced entry after removing the
            # current one.
            ref_id = int(matches[-1])
        ref_store = self._rec_store[int(self._pkt[ref_id & self._mask])]
        pkt = self._pkt
        rec_store = self._rec_store
        mask = self._mask
        for entry_id in matches[::-1].tolist():
            if entry_id >= ref_id:
                continue
            if rec_store[int(pkt[entry_id & mask])] != ref_store:
                return entry_id
        return -1

    # -- room making: compact, grow ---------------------------------------

    def _make_room(self, n: int) -> None:
        # Reachable entries are bounded by 2 per indexed fingerprint
        # (current + history candidate); compact when that fits in half
        # the ring, otherwise double.  Compaction must strictly shrink
        # the window to count as progress — a compact ring that still
        # cannot absorb the batch (e.g. a batch wider than the whole
        # capacity) has to fall through to growth or the loop would
        # never terminate.
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
        slots = ids & self._mask
        fps = self._fps[slots]
        stores = np.asarray(self._rec_store, dtype=np.int64)[self._pkt[slots]]
        order = np.lexsort((ids, fps))
        fps_s = fps[order]
        stores_s = stores[order]
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
        if 2 * len(kept) > self._capacity:
            return False
        old_slots = kept & self._mask
        remap: Dict[int, int] = dict(
            zip(kept.tolist(), range(len(kept))))
        fps = self._fps[old_slots]
        offsets = self._offsets[old_slots]
        pkt = self._pkt[old_slots]
        self._fps[:len(kept)] = fps
        self._offsets[:len(kept)] = offsets
        self._pkt[:len(kept)] = pkt
        self._index = {fp: remap[entry_id]
                       for fp, entry_id in self._index.items()}
        self._unusable_ids = {remap[entry_id]
                              for entry_id in self._unusable_ids
                              if entry_id in remap}
        self._next = len(kept)
        self.compactions += 1
        return True

    def _grow(self) -> None:
        old_mask = self._mask
        capacity = self._capacity * 2
        fps = np.zeros(capacity, dtype=np.uint64)
        offsets = np.zeros(capacity, dtype=np.int64)
        pkt = np.zeros(capacity, dtype=np.int64)
        ids = np.arange(self._next, dtype=np.int64)
        old_slots = ids & old_mask
        new_slots = ids & (capacity - 1)
        fps[new_slots] = self._fps[old_slots]
        offsets[new_slots] = self._offsets[old_slots]
        pkt[new_slots] = self._pkt[old_slots]
        self._fps = fps
        self._offsets = offsets
        self._pkt = pkt
        self._capacity = capacity
        self._mask = capacity - 1
        self.grows += 1
