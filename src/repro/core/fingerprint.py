"""Fingerprint scheme: window size + anchor selection rule.

The paper's parameters (§III-B): window ``w = 16`` bytes, and a
fingerprint is *representative* (an anchor) when its last ``k = 4``
bits are zero, i.e. roughly one anchor per 16 byte positions.

There is one scheme.  The GF(2) Rabin reference
(``tests/reference_rabin.py``) and the winnowing ablation
(``benchmarks/winnowing.py``) are subclasses that override
:meth:`FingerprintScheme._select`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, Tuple

import numpy as np

from .polyhash import AnchorSet, PolyFingerprinter

DEFAULT_WINDOW = 16
DEFAULT_ZERO_BITS = 4
#: Bytes one anchor memo may hold (stored anchors plus
#: :data:`_ENTRY_OVERHEAD` per payload) before it drops its oldest:
#: about 1,700 MTU payloads, 2.5 MB of traffic.  What it holds it adds
#: to the process's peak RSS, byte for byte.
ANCHOR_MEMO_BYTES = 2 * 1024 * 1024
#: What an entry costs beyond its anchors: the 16-byte key, the array
#: object, its ``OrderedDict`` slot and node at the table's usual fill,
#: and the allocator's chunk headers.
_ENTRY_OVERHEAD = 320
#: Longest payload memoised: offsets are stored as ``uint16``.
_MEMO_MAX_PAYLOAD = 0xFFFF
#: One stored anchor, 10 bytes: a hit hands the two fields to an
#: :class:`AnchorSet` as they lie.
_PACKED = np.dtype([("fingerprint", "<u8"), ("offset", "<u2")])


class _AnchorMemo:
    """The anchors one set of scheme parameters selected, by content.

    Keyed by the payload's blake2b-128 digest, so nothing keeps the
    payload alive; the value is one :data:`_PACKED` array (about 0.9 KB
    for an MTU payload).  Oldest entry first out once
    :data:`ANCHOR_MEMO_BYTES` are held.  Selection is a pure function of
    the bytes and of the parameters the memo is registered under, so an
    entry cannot go stale and a miss differs from a hit in host time
    only.  :meth:`FingerprintScheme.anchors` reads ``entries`` and
    counts hits and misses itself (the per-packet path).
    """

    __slots__ = ("entries", "held", "hits", "misses", "evictions")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.entries: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self.held = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def add(self, key: bytes, selected: AnchorSet) -> None:
        packed = np.empty(selected.offsets.size, _PACKED)
        packed["fingerprint"] = selected.fingerprints
        packed["offset"] = selected.offsets
        packed.flags.writeable = False      # every hit is a view of it
        self.entries[key] = packed
        self.held += packed.nbytes + _ENTRY_OVERHEAD
        while self.held > ANCHOR_MEMO_BYTES:
            _, dropped = self.entries.popitem(last=False)
            self.held -= dropped.nbytes + _ENTRY_OVERHEAD
            self.evictions += 1


#: (scheme class, window, zero_bits) -> the memo every scheme of those
#: parameters in this process shares.  The class is part of the key: a
#: subclass selects by its own rule, so it must never be answered from
#: another class's anchors.
_MEMOS: Dict[Tuple[type, int, int], _AnchorMemo] = {}


def anchor_memo_stats() -> Dict[str, int]:
    """Hits, misses, evictions and bytes held, over every memo."""
    memos = _MEMOS.values()
    return {"hits": sum(memo.hits for memo in memos),
            "misses": sum(memo.misses for memo in memos),
            "evictions": sum(memo.evictions for memo in memos),
            "bytes": sum(memo.held for memo in memos)}


def anchor_memo_clear() -> None:
    """Empty every anchor memo and zero its counters.

    In place: live schemes keep pointing at the memo of their
    parameters.  Benchmarks that time fingerprinting call this first;
    tests call it so none depends on what ran before.
    """
    for memo in _MEMOS.values():
        memo.clear()


@dataclass
class FingerprintScheme:
    """The rolling fingerprinter plus the anchor-selection rule.

    Encoder and decoder of a gateway pair must share an identical
    scheme; anchor positions are content-defined so both sides select
    the same anchors from the same payload bytes.  Anchors are the
    polynomial fingerprints (:mod:`repro.core.polyhash`) whose last
    ``zero_bits`` bits are zero (value sampling, §III-A).
    """

    window: int = DEFAULT_WINDOW
    zero_bits: int = DEFAULT_ZERO_BITS
    _impl: PolyFingerprinter = field(init=False, repr=False, compare=False)
    # The process-wide memo of this class and parameters (see anchors()).
    _memo: _AnchorMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.zero_bits < 0 or self.zero_bits > 32:
            raise ValueError("zero_bits must be in [0, 32]")
        self._impl = PolyFingerprinter(self.window)
        params = (type(self), self.window, self.zero_bits)
        memo = _MEMOS.get(params)
        if memo is None:
            # lint: disable=purity-global-mutation(pure memoisation: anchors are a deterministic function of the payload bytes and the parameters in the key, so a worker-local memo returns the parent's anchors)
            memo = _MEMOS[params] = _AnchorMemo()
        self._memo = memo

    @property
    def mask(self) -> int:
        return (1 << self.zero_bits) - 1

    def anchors(self, data: bytes) -> AnchorSet:
        """Selected ``(offset, fingerprint)`` anchors of ``data``.

        The same payload bytes come through again and again: the
        decoder mirrors the encoder's cache update, TCP retransmits,
        and every cell of a sweep pushes the same file through a fresh
        gateway pair.  All schemes of one class and equal parameters in
        the process share one byte-bounded memo (:class:`_AnchorMemo`), so a payload
        is fingerprinted once while it is held.
        """
        if type(data) is not bytes:     # mutable buffers cannot be keys
            return self._select(data)
        memo = self._memo
        key = blake2b(data, digest_size=16).digest()
        packed = memo.entries.get(key)
        if packed is not None:
            memo.hits += 1
            return AnchorSet(packed["offset"], packed["fingerprint"])
        memo.misses += 1
        selected = self._select(data)
        if len(data) <= _MEMO_MAX_PAYLOAD:
            memo.add(key, selected)
        return selected

    def _select(self, data: bytes) -> AnchorSet:
        return self._impl.anchors(data, self.mask)
