"""Rabin fingerprinting over GF(2) (Rabin 1981), the reference scheme.

This is the fingerprint the paper (following Spring & Wetherall) uses:
the contents of a sliding ``w``-byte window are interpreted as a
polynomial over GF(2) and reduced modulo a fixed irreducible polynomial
of degree 64.  The implementation is the classic table-driven rolling
form: appending a byte and expiring the oldest byte each cost two table
lookups and a few XORs.

It is the *reference* fingerprinter: algorithmically faithful, pure
Python, and therefore slow.  ``src/`` fingerprints with the vectorised
:mod:`repro.core.polyhash` scheme only.  :class:`RabinScheme` puts this
one behind the same :class:`~repro.core.fingerprint.FingerprintScheme`
interface, so a test can monkeypatch it into a whole transfer
(``tests/test_rabin.py``: the delivered stream must not change) and
property tests can hold the two to the same selection statistics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.core.fingerprint import FingerprintScheme
from repro.core.polyhash import AnchorSet

# x^64 + x^4 + x^3 + x + 1, a primitive (hence irreducible) polynomial
# over GF(2).  The low 64 coefficient bits are 0x1B; bit 64 is implicit.
IRREDUCIBLE_POLY = (1 << 64) | 0x1B

_MASK64 = (1 << 64) - 1


def _poly_mod(value: int, poly: int = IRREDUCIBLE_POLY) -> int:
    """Reduce the GF(2) polynomial ``value`` modulo ``poly`` (degree 64)."""
    poly_degree = poly.bit_length() - 1
    while value.bit_length() > poly_degree:
        shift = value.bit_length() - poly.bit_length()
        value ^= poly << shift
    return value


#: window size -> (append_table, expire_table), shared by all instances.
_TABLE_CACHE: Dict[int, Tuple[List[int], List[int]]] = {}


def _build_tables(window: int) -> Tuple[List[int], List[int]]:
    """Precompute the append and expire reduction tables.

    ``append_table[x]`` reduces the 8 bits that overflow past degree 63
    when the fingerprint is shifted left by one byte.  ``expire_table[b]``
    is ``(b << 8*window) mod P``: XORing it removes the contribution of
    the byte leaving the window (after the shift has been applied).
    """
    append_table = [_poly_mod(x << 64) for x in range(256)]
    expire_table = [_poly_mod(b << (8 * window)) for b in range(256)]
    return append_table, expire_table


class RabinFingerprinter:
    """Rolling GF(2) Rabin fingerprints of a ``window``-byte window."""

    FP_BITS = 64

    def __init__(self, window: int = 16) -> None:
        if window < 2:
            raise ValueError("window must be at least 2 bytes")
        self.window = window
        tables = _TABLE_CACHE.get(window)
        if tables is None:
            tables = _build_tables(window)
            _TABLE_CACHE[window] = tables
        self._append, self._expire = tables

    def fingerprint(self, data: bytes) -> int:
        """Fingerprint of exactly one window (``len(data)`` arbitrary)."""
        fp = 0
        append = self._append
        for byte in data:
            fp = (((fp << 8) & _MASK64) | byte) ^ append[fp >> 56]
        return fp

    def window_fingerprints(self, data: bytes) -> Iterator[Tuple[int, int]]:
        """Yield ``(offset, fingerprint)`` for every window position.

        ``offset`` is the index of the window's first byte.  Data shorter
        than the window yields nothing.
        """
        w = self.window
        if len(data) < w:
            return
        append = self._append
        expire = self._expire
        fp = self.fingerprint(data[:w])
        yield 0, fp
        for i in range(w, len(data)):
            incoming = data[i]
            outgoing = data[i - w]
            fp = ((((fp << 8) & _MASK64) | incoming) ^ append[fp >> 56]) ^ expire[outgoing]
            yield i - w + 1, fp

    def anchors(self, data: bytes, mask: int) -> List[Tuple[int, int]]:
        """All ``(offset, fingerprint)`` whose low bits under ``mask`` are 0.

        This is the value-sampling rule of §III-A: only fingerprints whose
        last ``k`` bits are zero are retained.
        """
        return [(off, fp) for off, fp in self.window_fingerprints(data)
                if fp & mask == 0]


def anchor_set(pairs: Iterable[Tuple[int, int]]) -> AnchorSet:
    """An :class:`AnchorSet` of an eagerly materialised pair list."""
    pairs = list(pairs)
    return AnchorSet(np.array([off for off, _ in pairs], dtype=np.int64),
                     np.array([fp for _, fp in pairs], dtype=np.uint64))


class RabinScheme(FingerprintScheme):
    """Value sampling (§III-A) over GF(2) Rabin fingerprints.

    Anchor *values* differ from the polynomial scheme's by construction,
    so the wire bytes differ; the delivered stream may not.  Its anchor
    memo is its own (the memo is keyed on the scheme class).
    """

    def _select(self, data: bytes) -> AnchorSet:
        return anchor_set(
            RabinFingerprinter(self.window).anchors(data, self.mask))
