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
    region packs and unpacks as one tuple.

    A ``NamedTuple`` rather than a frozen dataclass: same immutability
    and equality, but tuple construction skips the per-field
    ``object.__setattr__`` a frozen dataclass pays — the encoder builds
    one per accepted match in its hot loop.
    """

    fingerprint: int
    offset_new: int
    offset_stored: int
    length: int


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
    # Each direction is one slice compare (memcmp) that settles the
    # common fully-matching case; only a mismatch pays for the
    # big-endian XOR whose leading (trailing) zero bytes count the
    # common prefix (suffix) at C speed.  The anchor window is the
    # head of the right-hand run: a first difference inside it is a
    # fingerprint collision, so verification costs no compare of its
    # own.
    room = min(len(new) - new_anchor, len(stored) - stored_anchor)
    if room < window:
        return None
    a = new[new_anchor: new_anchor + room]
    b = stored[stored_anchor: stored_anchor + room]
    if a == b:
        run = room
    else:
        x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
        run = room - ((x.bit_length() + 7) >> 3)
        if run < window:
            return None

    left_room = min(new_anchor - left_limit, stored_anchor)
    if left_room > 0:
        a = new[new_anchor - left_room: new_anchor]
        b = stored[stored_anchor - left_room: stored_anchor]
        if a == b:
            left = left_room
        else:
            x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
            left = ((x & -x).bit_length() - 1) >> 3
    else:
        left = 0

    return new_anchor - left, stored_anchor - left, left + run
