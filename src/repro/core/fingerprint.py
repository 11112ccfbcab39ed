"""Fingerprint scheme: window size + anchor selection rule.

The paper's parameters (§III-B): window ``w = 16`` bytes, and a
fingerprint is *representative* (an anchor) when its last ``k = 4``
bits are zero, i.e. roughly one anchor per 16 byte positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Protocol, Tuple, Union

import numpy as np

from .polyhash import AnchorSet, PolyFingerprinter
from .rabin import RabinFingerprinter

DEFAULT_WINDOW = 16
DEFAULT_ZERO_BITS = 4
#: Payloads whose anchors :meth:`FingerprintScheme.anchors` remembers.
ANCHOR_MEMO_SIZE = 128


class Fingerprinter(Protocol):
    """Anything that produces rolling window fingerprints."""

    window: int

    def anchors(self, data: bytes,
                mask: int) -> Union["AnchorSet",
                                    Iterable[Tuple[int, int]]]:
        """All ``(offset, fingerprint)`` selected by the mask rule.

        Either an :class:`~repro.core.polyhash.AnchorSet` (fast path)
        or a plain list of pairs (reference implementations).
        """
        ...

    def window_fingerprints(self, data: bytes) -> Iterable[Tuple[int, int]]:
        """All ``(offset, fingerprint)`` pairs."""
        ...


@dataclass
class FingerprintScheme:
    """A configured fingerprinter plus the anchor-selection rule.

    Encoder and decoder of a gateway pair must share an identical
    scheme; anchor positions are content-defined so both sides select
    the same anchors from the same payload bytes.

    ``selection`` chooses the sampling rule: ``"value"`` is the paper's
    last-k-bits-zero rule (§III-A); ``"winnowing"`` keeps each sliding
    window's minimum fingerprint (bounded anchor gaps — see
    :mod:`repro.core.winnowing`).  For winnowing the expected anchor
    density is matched to value sampling by using a selection window of
    ``2**zero_bits`` fingerprints.
    """

    window: int = DEFAULT_WINDOW
    zero_bits: int = DEFAULT_ZERO_BITS
    kind: str = "poly"
    selection: str = "value"
    _impl: Fingerprinter = field(init=False, repr=False, compare=False)
    # payload -> its AnchorSet, oldest first (see anchors()).
    _memo: Dict[bytes, AnchorSet] = field(init=False, repr=False,
                                          compare=False,
                                          default_factory=dict)

    def __post_init__(self) -> None:
        if self.zero_bits < 0 or self.zero_bits > 32:
            raise ValueError("zero_bits must be in [0, 32]")
        if self.selection not in ("value", "winnowing"):
            raise ValueError(f"unknown selection rule: {self.selection!r}")
        if self.kind == "poly":
            self._impl = PolyFingerprinter(self.window)
        elif self.kind == "rabin":
            self._impl = RabinFingerprinter(self.window)
        else:
            raise ValueError(f"unknown fingerprinter kind: {self.kind!r}")

    @property
    def mask(self) -> int:
        return (1 << self.zero_bits) - 1

    def anchors(self, data: bytes) -> AnchorSet:
        """Selected ``(offset, fingerprint)`` anchors of ``data``.

        Always an :class:`AnchorSet`, regardless of the underlying
        fingerprinter, so the encoder/decoder hot paths see one type.

        A gateway pair shares one scheme, and the same payload bytes
        come through it again within a few packets: the decoder mirrors
        the encoder's cache update, and TCP retransmits.  The last
        :data:`ANCHOR_MEMO_SIZE` distinct payloads keep their anchor
        set; selection is a pure function of the bytes and of
        parameters fixed at construction, so an entry cannot go stale.
        """
        if type(data) is not bytes:     # mutable buffers cannot be keys
            return self._select(data)
        memo = self._memo
        selected = memo.get(data)
        if selected is None:
            selected = self._select(data)
            if len(memo) >= ANCHOR_MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[data] = selected
        return selected

    def _select(self, data: bytes) -> AnchorSet:
        if self.selection == "value":
            selected = self._impl.anchors(data, self.mask)
            if isinstance(selected, AnchorSet):
                return selected
            return AnchorSet.from_pairs(selected)
        from .winnowing import winnow_positions

        selection_window = max(2, 1 << self.zero_bits)
        if hasattr(self._impl, "hashes"):
            hashes = self._impl.hashes(data)  # type: ignore[attr-defined]
            positions = winnow_positions(hashes, selection_window)
            indices = np.asarray(positions, dtype=np.int64)
            return AnchorSet(indices, hashes[indices])
        from .winnowing import winnow_anchors

        return AnchorSet.from_pairs(
            winnow_anchors(list(self._impl.window_fingerprints(data)),
                           selection_window))

    def expected_anchor_spacing(self) -> float:
        """Mean byte distance between anchors on random data."""
        return float(1 << self.zero_bits)
