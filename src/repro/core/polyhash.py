"""Vectorised rolling fingerprints (fast path).

A polynomial rolling hash modulo 2**64 with an odd base ``B``:

    H(i) = sum_{j=0}^{w-1} data[i+j] * B**j        (mod 2**64)

Because ``B`` is odd it is invertible modulo 2**64, so every window
hash of a packet can be computed with a single prefix-sum:

    A[i]   = sum_{j<i} data[j] * B**j              (mod 2**64)
    H(i)   = (A[i+w] - A[i]) * B**(-i)             (mod 2**64)

All of this vectorises in numpy uint64 arithmetic (which wraps modulo
2**64 natively).  A final splitmix64-style mixing step whitens the low
bits so the value-sampling rule (low ``k`` bits zero) selects anchors
uniformly even on highly structured (e.g. ASCII) payloads.

This scheme is *not* a GF(2) Rabin fingerprint, but it has the two
properties byte caching actually relies on: it is a deterministic
content-defined rolling hash, and its selected-anchor rate is ~2**-k.
Hash collisions are immaterial for correctness because the encoder
byte-compares candidate regions, exactly as the paper does.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

_BASE = np.uint64(0x9E3779B97F4A7C15 | 1)
_BASE_INV = np.uint64(pow(int(_BASE), -1, 1 << 64))
_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)

_U64 = np.uint64


class _PowerCache:
    """Lazily grown arrays of B**j and B**-j modulo 2**64."""

    def __init__(self) -> None:
        self.pows = np.ones(1, dtype=np.uint64)
        self.inv_pows = np.ones(1, dtype=np.uint64)

    def ensure(self, n: int) -> None:
        if len(self.pows) >= n:
            return
        size = max(n, 2 * len(self.pows), 4096)
        # Build in Python ints (explicit mod 2**64) to avoid relying on
        # numpy scalar overflow semantics, then freeze into arrays.
        base = int(_BASE)
        base_inv = int(_BASE_INV)
        mod = 1 << 64
        pows = [0] * size
        inv_pows = [0] * size
        pows[0] = 1
        inv_pows[0] = 1
        for i in range(1, size):
            pows[i] = (pows[i - 1] * base) % mod
            inv_pows[i] = (inv_pows[i - 1] * base_inv) % mod
        self.pows = np.array(pows, dtype=np.uint64)
        self.inv_pows = np.array(inv_pows, dtype=np.uint64)


_POWERS = _PowerCache()

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_U64 = np.empty(0, dtype=np.uint64)


class AnchorSet:
    """Selected anchors of one payload, kept as numpy arrays.

    The encoder hot path produces anchors with vectorised numpy code;
    materialising a ``List[Tuple[int, int]]`` with per-element ``int()``
    calls used to dominate the per-packet cost.  This container keeps
    the ``offsets``/``fingerprints`` arrays and converts to Python ints
    at most once (``tolist`` runs in C), lazily, when a consumer needs
    pairs — the conversion is shared between region finding and the
    cache-update pass, so a packet's anchors are materialised once.

    Iteration, ``len``, truthiness, indexing and equality behave like
    the historical list of ``(offset, fingerprint)`` tuples.
    """

    __slots__ = ("offsets", "fingerprints", "_pairs", "_fps_list")

    def __init__(self, offsets: np.ndarray,
                 fingerprints: np.ndarray) -> None:
        self.offsets = offsets
        self.fingerprints = fingerprints
        self._pairs: Optional[List[Tuple[int, int]]] = None
        self._fps_list: Optional[List[int]] = None

    @classmethod
    def empty(cls) -> "AnchorSet":
        return cls(_EMPTY_I64, _EMPTY_U64)

    def fps_list(self) -> List[int]:
        """The fingerprints as Python ints, converted at most once.

        Shared between the table-probe prefilter and the cache-insert
        index update, which both need the same ``tolist``.
        """
        fps = self._fps_list
        if fps is None:
            fps = self._fps_list = self.fingerprints.tolist()
        return fps

    def pairs(self) -> List[Tuple[int, int]]:
        """``(offset, fingerprint)`` pairs as Python ints, cached."""
        if self._pairs is None:
            self._pairs = list(zip(self.offsets.tolist(),
                                   self.fps_list()))
        return self._pairs

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self.pairs())

    def __len__(self) -> int:
        return len(self.offsets)

    def __bool__(self) -> bool:
        return len(self.offsets) > 0

    def __getitem__(self, index: Any) -> Any:
        return self.pairs()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AnchorSet):
            return self.pairs() == other.pairs()
        if isinstance(other, (list, tuple)):
            return self.pairs() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnchorSet({self.pairs()!r})"


def _mix(values: np.ndarray) -> np.ndarray:
    """Splitmix64-style finalizer, vectorised over uint64."""
    x = values.copy()
    x ^= x >> _U64(33)
    x *= _MIX1
    x ^= x >> _U64(29)
    x *= _MIX2
    x ^= x >> _U64(32)
    return x


class PolyFingerprinter:
    """Vectorised rolling fingerprints of a ``window``-byte window."""

    FP_BITS = 64

    def __init__(self, window: int = 16) -> None:
        if window < 2:
            raise ValueError("window must be at least 2 bytes")
        self.window = window

    def hashes(self, data: bytes) -> np.ndarray:
        """Array of mixed window hashes; index i covers data[i:i+w]."""
        w = self.window
        n = len(data)
        if n < w:
            return np.empty(0, dtype=np.uint64)
        _POWERS.ensure(n + 1)
        arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        terms = arr * _POWERS.pows[:n]
        prefix = np.empty(n + 1, dtype=np.uint64)
        prefix[0] = 0
        np.cumsum(terms, out=prefix[1:])
        raw = (prefix[w:] - prefix[:-w]) * _POWERS.inv_pows[: n - w + 1]
        return _mix(raw)

    def anchors(self, data: bytes, mask: int) -> AnchorSet:
        """All ``(offset, fingerprint)`` with ``fingerprint & mask == 0``.

        Returned as an :class:`AnchorSet`: the selection stays in numpy
        (one boolean mask + one fancy index over the whole hash array)
        instead of a per-element Python loop.
        """
        hashes = self.hashes(data)
        if len(hashes) == 0:
            return AnchorSet.empty()
        selected = np.nonzero((hashes & _U64(mask)) == 0)[0]
        return AnchorSet(selected, hashes[selected])
