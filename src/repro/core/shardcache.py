"""Sharded, memory-bounded byte cache for population serving.

A gateway in front of thousands of subscribers holds *one* cache for
all of them.  This module shards the *payload* side of that cache and
leaves the fingerprint side alone:

* **One fingerprint table** — :class:`ShardedByteCache` inherits
  ``insert_packet`` / ``lookup*`` / ``flush`` and
  the ring table from :class:`~repro.core.cache.ByteCache`, so the
  encoder's one-pass anchor resolve and inlined ring probe serve the
  population path too.
* **Payload homes** — a cached payload lives in exactly one of
  ``n_shards`` :class:`~repro.core.cache.PacketStore` homes, the shard
  of its first anchor, under a store id drawn from one shared counter
  and with its packet record in one shared ``records`` dict.
  Table entries left dangling by a home's eviction leave at the next
  lookup or the table's next compaction, like the unsharded cache's.
* **Per-shard byte budgets** — the total budget splits evenly across
  homes, each enforcing its own bound (LRU by default here: a shared
  cache keeps hot content alive instead of sliding a window).
* **Probabilistic admission** — ``admission < 1.0`` skips caching a
  payload entirely on a content-keyed coin; the argument and the coin
  (:meth:`ByteCache._admit`) are the unsharded cache's.

Which shard *owns a fingerprint* is bookkeeping only: per-shard entry
counts route the table's keys with ``shard_of`` when a report or a
telemetry sample asks, never per packet.

Without eviction the sharded cache is observationally equivalent to one
big :class:`ByteCache`, and one FIFO shard stays so under eviction
(both held by property tests); more shards differ only in *which*
payloads are evicted, never in safety — a dangling reference is a
decode miss, the same failure TCP already repairs.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .cache import ByteCache, PacketStore
from .ringtable import NO_RECORD, PacketRecord

#: Fibonacci multiplier (2^64 / phi) mixing fingerprints before shard
#: routing — anchor selection zeroes the low ``zero_bits`` of every
#: fingerprint, so raw ``fp % n`` would collapse onto shard 0.
_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def shard_of(fingerprint: int, n_shards: int) -> int:
    """Owning shard index of a fingerprint (deterministic)."""
    return (((fingerprint * _MIX) & _MASK64) >> 17) % n_shards


class ShardedPacketStore:
    """N byte-budgeted :class:`PacketStore` homes behind one store surface.

    ``add`` routes a payload to the shard of its first anchor; reads
    find it again through ``_home`` (store id -> shard), whose entries
    for evicted payloads are dropped in amortised sweeps.
    """

    def __init__(self, byte_budget: int, n_shards: int,
                 max_packets: Optional[int], eviction: str) -> None:
        per_shard_packets = (None if max_packets is None
                             else max(1, -(-max_packets // n_shards)))
        per_shard = max(1, byte_budget // n_shards)
        self.shards: List[PacketStore] = [
            PacketStore(per_shard, per_shard_packets, eviction)
            for _ in range(n_shards)]
        # One shared counter and one shared record dict: an id names
        # one payload cache-wide (the fingerprint table and the verify
        # oracles depend on that).
        self.records = self.shards[0].records
        for shard in self.shards[1:]:
            shard._ids = self.shards[0]._ids
            shard.records = self.records
        self._home: Dict[int, PacketStore] = {}
        self._prune_at = 64

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def bytes_used(self) -> int:
        return sum(shard.bytes_used for shard in self.shards)

    @property
    def evictions(self) -> int:
        return sum(shard.evictions for shard in self.shards)

    @property
    def byte_budget(self) -> int:
        return sum(shard.byte_budget for shard in self.shards)

    def add(self, payload: bytes, record: PacketRecord = NO_RECORD,
            route: Optional[int] = None) -> int:
        n_shards = len(self.shards)
        home = self.shards[
            shard_of(route, n_shards) if route is not None
            else (zlib.crc32(payload) & 0xFFFFFFFF) % n_shards]
        store_id = home.add(payload, record)
        self._home[store_id] = home
        if len(self._home) > self._prune_at:
            self._home = {sid: self._home[sid] for sid in self.ids()}
            self._prune_at = 2 * len(self._home) + 64
        return store_id

    def get(self, store_id: int) -> Optional[bytes]:
        home = self._home.get(store_id)
        return None if home is None else home.get(store_id)

    def view(self, store_id: int) -> Optional[memoryview]:
        home = self._home.get(store_id)
        return None if home is None else home.view(store_id)

    def peek(self, store_id: int) -> Optional[bytes]:
        home = self._home.get(store_id)
        return None if home is None else home.peek(store_id)

    def ids(self) -> Iterator[int]:
        for shard in self.shards:
            yield from shard.ids()

    def clear(self) -> None:
        for shard in self.shards:
            shard.clear()
        self._home.clear()

    def set_byte_budget(self, byte_budget: int) -> int:
        """Re-split the budget across shards; returns evictions forced."""
        if byte_budget <= 0:
            raise ValueError("byte_budget must be positive")
        share = max(1, byte_budget // len(self.shards))
        return sum(shard.set_byte_budget(share) for shard in self.shards)

    def evict_oldest(self, count: int) -> int:
        """Force out up to ``count`` payloads, always the eviction head
        with the oldest store id of any shard; returns how many."""
        evicted = 0
        while evicted < count:
            heads = [shard for shard in self.shards if len(shard)]
            if not heads:
                break
            oldest = min(heads, key=lambda shard: next(shard.ids()))
            evicted += oldest.evict_oldest(1)
        return evicted


class ShardedByteCache(ByteCache):
    """A :class:`ByteCache` whose payloads live in N routed homes.

    Every cache operation is the inherited :class:`ByteCache` code over
    a :class:`ShardedPacketStore` (swapped in for the single store the
    base constructor builds) and the one inherited ring table.  This
    class adds the shard bookkeeping: the split budget, per-shard
    occupancy and the invariant check.
    """

    store: ShardedPacketStore

    def __init__(self, byte_budget: int = 16 * 1024 * 1024,
                 n_shards: int = 8,
                 max_packets: Optional[int] = None,
                 eviction: str = "lru",
                 admission: float = 1.0) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        super().__init__(byte_budget, max_packets, eviction, admission)
        self.store = ShardedPacketStore(
            byte_budget, n_shards, max_packets, eviction)
        self.table.records = self.store.records
        self.byte_budget = byte_budget
        self.n_shards = n_shards
        # shard_entries() memo: (table inserts, keys indexed) -> counts.
        self._entries_key: Optional[Tuple[int, int]] = None
        self._entries: List[int] = []

    def set_byte_budget(self, byte_budget: int) -> int:
        evicted = self.store.set_byte_budget(byte_budget)
        self.byte_budget = byte_budget
        return evicted

    def shard_entries(self) -> List[int]:
        """Table entries per owning shard, routed on demand.

        The table only changes by an insert (bumps ``inserts``; a
        compaction runs only inside one), a lazy removal or a flush
        (both shrink it), so ``(inserts, indexed)`` names its key set
        exactly and memoises the routing: the N
        per-shard gauges of one telemetry sample share one pass.
        """
        ring = self.table
        indexed = ring.indexed
        key = (ring.inserts, indexed)
        if key != self._entries_key:
            fps = np.fromiter(ring._index.keys(), dtype=np.uint64,
                              count=indexed)
            # shard_of, vectorised: uint64 multiplication wraps mod 2^64.
            owners = (fps * np.uint64(_MIX) >> np.uint64(17)) % np.uint64(
                self.n_shards)
            self._entries = np.bincount(
                owners.astype(np.int64), minlength=self.n_shards).tolist()
            self._entries_key = key
        return self._entries

    def shard_occupancy(self) -> List[Dict[str, int]]:
        """Per-shard occupancy/eviction snapshot (telemetry + reports)."""
        entries = self.shard_entries()
        return [{
            "shard": index,
            "payloads": len(shard),
            "bytes": shard.bytes_used,
            "byte_budget": shard.byte_budget,
            "entries": entries[index],
            "evictions": shard.evictions,
        } for index, shard in enumerate(self.store.shards)]

    def check_invariants(self) -> List[str]:
        """Machine-checked shard invariants; returns violation strings.

        The verification harness calls this on every tick of a run: per-shard bytes
        within budget and equal to the payloads stored, store ids
        unique across shards, every payload homed where it is held, one
        packet record per stored payload and none beside.
        """
        problems: List[str] = []
        holder: Dict[int, int] = {}
        for index, shard in enumerate(self.store.shards):
            if shard.bytes_used > shard.byte_budget:
                problems.append(f"shard {index}: {shard.bytes_used} bytes "
                                f"exceeds budget {shard.byte_budget}")
            actual = sum(len(payload) for payload in shard._data.values())
            if actual != shard.bytes_used:
                problems.append(f"shard {index}: accounted "
                                f"{shard.bytes_used} bytes but stores {actual}")
            for store_id in shard.ids():
                if store_id in holder:
                    problems.append(f"store id {store_id} held by shards "
                                    f"{holder[store_id]} and {index}")
                holder[store_id] = index
                if self.store._home.get(store_id) is not shard:
                    problems.append(f"store id {store_id} held by shard "
                                    f"{index} but not homed there")
        if self.store.records.keys() != holder.keys():
            problems.append(f"{len(self.store.records)} packet records for "
                            f"{len(holder)} stored payloads")
        return problems
