"""Match expansion as ``repro.core.region`` wrote it before the anchor
window was folded into the right-hand run, kept as the differential
reference for :func:`repro.core.region.expand_bounds` (ROADMAP:
reference variants live in tests, not in ``src/``).

:func:`expand_match` verifies the anchor window with its own compare,
then grows the match with :func:`common_suffix_length` to the left and
:func:`common_prefix_length` to the right — three independent steps
where the production code takes two.  ``test_region`` pins these
helpers on hand-made cases and the property test there holds
``expand_bounds`` to ``expand_match`` on random payload pairs.
"""

from typing import Optional

from repro.core.region import Region


def _first_diff(a: bytes, a_start: int, b: bytes, b_start: int,
                length: int) -> int:
    """Index of the first differing byte in two ranges known to differ.

    Both ranges are read as big-endian integers and XORed: the number
    of leading zero *bytes* of the XOR is exactly the common prefix
    length.
    """
    x = (int.from_bytes(a[a_start: a_start + length], "big")
         ^ int.from_bytes(b[b_start: b_start + length], "big"))
    return length - ((x.bit_length() + 7) >> 3)


def common_prefix_length(a: bytes, a_start: int, b: bytes, b_start: int,
                         limit: int) -> int:
    """Length of the common run of ``a[a_start:]`` and ``b[b_start:]``."""
    if limit <= 0:
        return 0
    if a[a_start: a_start + limit] == b[b_start: b_start + limit]:
        return limit
    return _first_diff(a, a_start, b, b_start, limit)


def common_suffix_length(a: bytes, a_end: int, b: bytes, b_end: int,
                         limit: int) -> int:
    """Length of the common run ending at ``a[:a_end]`` / ``b[:b_end]``."""
    if limit <= 0:
        return 0
    if a[a_end - limit: a_end] == b[b_end - limit: b_end]:
        return limit
    # Mirror of _first_diff: the number of trailing zero bytes of the
    # big-endian XOR is the common suffix length.
    x = (int.from_bytes(a[a_end - limit: a_end], "big")
         ^ int.from_bytes(b[b_end - limit: b_end], "big"))
    return ((x & -x).bit_length() - 1) >> 3


def expand_match(new: bytes, new_anchor: int, stored: bytes,
                 stored_anchor: int, window: int,
                 left_limit: int = 0) -> Optional[Region]:
    """The maximal match around an anchor window as a :class:`Region`
    with a placeholder fingerprint of 0, or ``None`` for a collision,
    an anchor before ``left_limit`` or a window past either end."""
    if new_anchor < left_limit:
        return None
    if new_anchor + window > len(new) or stored_anchor + window > len(stored):
        return None
    if (new[new_anchor: new_anchor + window]
            != stored[stored_anchor: stored_anchor + window]):
        return None
    left = common_suffix_length(new, new_anchor, stored, stored_anchor,
                                min(new_anchor - left_limit, stored_anchor))
    right = common_prefix_length(
        new, new_anchor + window, stored, stored_anchor + window,
        min(len(new) - new_anchor, len(stored) - stored_anchor) - window)
    return Region(0, new_anchor - left, stored_anchor - left,
                  left + window + right)
