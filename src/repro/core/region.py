"""Match verification and boundary expansion.

When an anchor fingerprint of the incoming packet hits the cache, the
encoder byte-compares the two windows (two different strings can share
a fingerprint) and then grows the match left and right to find the full
repeated region (§III-A: "determine the boundaries of the repeated
content").
"""

from __future__ import annotations

from typing import NamedTuple


class Region(NamedTuple):
    """A repeated region to be replaced by an encoding field.

    ``offset_new``/``offset_stored`` are the region start offsets in the
    incoming and cached payloads; ``length`` is the match length;
    ``fingerprint`` identifies the cached payload at the decoder.  The
    field order is the wire order of §III-B's encoding field, so a
    region packs as one tuple, and the decoder reads the plain tuples
    ``struct`` unpacks (equal to the region they came from).

    A ``NamedTuple`` rather than a frozen dataclass: same immutability
    and equality, but tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays — the encoder builds
    one per accepted match in its hot loop.
    """

    fingerprint: int
    offset_new: int
    offset_stored: int
    length: int


#: Bytes compared per step of match expansion.  Matches mostly end
#: within a few chunks of the anchor, so only the chunk holding the
#: first difference is converted to ints, not the whole room.
_CHUNK = 64


def expand_bounds(new: bytes, new_anchor: int, stored: bytes,
                  stored_anchor: int, window: int,
                  left_limit: int = 0) -> "tuple[int, int, int] | None":
    """Verify and expand a candidate match around an anchor window.

    Returns ``(offset_new, offset_stored, length)`` of the maximal
    match, or ``None`` when the anchor windows do not actually match (a
    fingerprint collision).  The encoder hot loop uses this tuple form
    directly and builds a :class:`Region` only once a match passes the
    length and policy gates.

    ``left_limit`` prevents the region from growing into bytes of the
    incoming packet that an earlier region already consumed.
    """
    if new_anchor < left_limit:
        return None
    # Each direction compares _CHUNK-byte slices outward from the
    # anchor (memcmp); only the first chunk that differs pays for the
    # big-endian XOR whose leading (trailing) zero bytes count its
    # common prefix (suffix) at C speed.  The anchor window is the
    # head of the right-hand run: a first difference inside it is a
    # fingerprint collision, so verification costs no compare of its
    # own.
    room = len(new) - new_anchor
    other = len(stored) - stored_anchor
    if other < room:
        room = other
    if room < window:
        return None
    run = 0
    while run < room:
        end = run + _CHUNK
        if end > room:
            end = room
        a = new[new_anchor + run: new_anchor + end]
        b = stored[stored_anchor + run: stored_anchor + end]
        if a != b:
            x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
            run = end - ((x.bit_length() + 7) >> 3)
            if run < window:
                return None
            break
        run = end

    left_room = new_anchor - left_limit
    if stored_anchor < left_room:
        left_room = stored_anchor
    left = 0
    while left < left_room:
        end = left + _CHUNK
        if end > left_room:
            end = left_room
        a = new[new_anchor - end: new_anchor - left]
        b = stored[stored_anchor - end: stored_anchor - left]
        if a != b:
            x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
            left += ((x & -x).bit_length() - 1) >> 3
            break
        left = end

    return new_anchor - left, stored_anchor - left, left + run
