"""Unit tests for match verification and boundary expansion."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.region import Region, expand_bounds
from tests.reference_region import (common_prefix_length,
                                    common_suffix_length, expand_match)


class TestCommonRuns:
    def test_prefix_basic(self):
        assert common_prefix_length(b"abcdef", 0, b"abcxyz", 0, 6) == 3

    def test_prefix_with_offsets(self):
        assert common_prefix_length(b"..abc", 2, b"!abc", 1, 3) == 3

    def test_prefix_limit_respected(self):
        assert common_prefix_length(b"aaaa", 0, b"aaaa", 0, 2) == 2

    def test_prefix_zero_on_immediate_mismatch(self):
        assert common_prefix_length(b"x", 0, b"y", 0, 1) == 0

    def test_prefix_crosses_chunk_boundary(self):
        a = b"q" * 1000
        b = b"q" * 600 + b"Z" + b"q" * 399
        assert common_prefix_length(a, 0, b, 0, 1000) == 600

    def test_suffix_basic(self):
        assert common_suffix_length(b"xxabc", 5, b"yyabc", 5, 3) == 3

    def test_suffix_partial(self):
        assert common_suffix_length(b"xxabc", 5, b"yyzbc", 5, 3) == 2

    def test_suffix_crosses_chunk_boundary(self):
        a = b"q" * 1000
        b = b"q" * 399 + b"Z" + b"q" * 600
        assert common_suffix_length(a, 1000, b, 1000, 1000) == 600

    def test_suffix_limit(self):
        assert common_suffix_length(b"aaaa", 4, b"aaaa", 4, 3) == 3


class TestExpandMatch:
    W = 16

    def test_exact_window_match_no_expansion(self):
        window = bytes(range(16))
        new = b"\x99" * 8 + window + b"\x88" * 8
        stored = b"\x77" * 4 + window + b"\x66" * 4
        match = expand_match(new, 8, stored, 4, self.W)
        assert match == Region(fingerprint=0, offset_new=8, offset_stored=4,
                               length=16)

    def test_expands_both_directions(self):
        shared = bytes(range(64))
        new = b"\x01" * 10 + shared + b"\x02" * 10
        stored = b"\x03" * 5 + shared + b"\x04" * 5
        # anchor the window in the middle of the shared run
        match = expand_match(new, 10 + 24, stored, 5 + 24, self.W)
        assert match.offset_new == 10
        assert match.offset_stored == 5
        assert match.length == 64

    def test_collision_rejected(self):
        new = bytes(range(16)) + b"\x00" * 16
        stored = bytes(range(1, 17)) + b"\x00" * 16
        assert expand_match(new, 0, stored, 0, self.W) is None

    def test_left_limit_prevents_overlap(self):
        shared = bytes(range(64))
        new = shared + shared
        stored = shared
        match = expand_match(new, 64 + 8, stored, 8, self.W, left_limit=64)
        assert match.offset_new >= 64

    def test_anchor_before_left_limit_rejected(self):
        shared = bytes(range(32))
        assert expand_match(shared, 4, shared, 4, self.W, left_limit=10) is None

    def test_window_out_of_range_rejected(self):
        data = bytes(20)
        assert expand_match(data, 10, data, 0, self.W) is None
        assert expand_match(data, 0, data, 10, self.W) is None

    def test_match_stops_at_payload_edges(self):
        shared = bytes(range(40))
        new = shared
        stored = b"\xAA" * 100 + shared
        match = expand_match(new, 10, stored, 110, self.W)
        assert match.offset_new == 0
        assert match.length == 40

    def test_full_packet_duplicate(self):
        rng = random.Random(4)
        payload = bytes(rng.randrange(256) for _ in range(1460))
        match = expand_match(payload, 700, payload, 700, self.W)
        assert match.offset_new == 0
        assert match.length == 1460


# ---------------------------------------------------------------------------
# expand_bounds (anchor window folded into the right-hand run) against the
# three-step reference in tests/reference_region.py
# ---------------------------------------------------------------------------

def assert_matches_reference(new, new_anchor, stored, stored_anchor, window,
                             left_limit):
    expected = expand_match(new, new_anchor, stored, stored_anchor, window,
                            left_limit)
    got = expand_bounds(new, new_anchor, stored, stored_anchor, window,
                        left_limit)
    assert got == (None if expected is None else tuple(expected)[1:])
    return got


@st.composite
def shared_pairs(draw):
    """Two payloads around a common run, anchored anywhere in either
    (inside the run, across its edges, or past the end of a payload)."""
    shared = draw(st.binary(min_size=0, max_size=200))
    new = draw(st.binary(max_size=40)) + shared + draw(st.binary(max_size=40))
    stored = (draw(st.binary(max_size=40)) + shared
              + draw(st.binary(max_size=40)))
    window = draw(st.integers(1, 32))
    new_anchor = draw(st.integers(0, len(new) + 4))
    stored_anchor = draw(st.integers(0, len(stored) + 4))
    return new, new_anchor, stored, stored_anchor, window


@settings(max_examples=300, deadline=None)
@given(shared_pairs(), st.integers(0, 80))
def test_expand_bounds_matches_reference(pair, left_limit):
    new, new_anchor, stored, stored_anchor, window = pair
    assert_matches_reference(new, new_anchor, stored, stored_anchor, window,
                             left_limit)


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=300), st.data())
def test_expand_bounds_aligned_copies_match_reference(payload, data):
    """Anchors on the same bytes of one payload and a copy — the case
    that expands — with any left limit, including past the anchor."""
    window = data.draw(st.integers(1, 32))
    anchor = data.draw(st.integers(0, len(payload)))
    prefix = data.draw(st.binary(max_size=30))
    left_limit = data.draw(st.integers(0, anchor + 2))
    assert_matches_reference(payload, anchor, prefix + payload,
                             anchor + len(prefix), window, left_limit)


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=32, max_size=300), st.data())
def test_difference_inside_window_is_a_collision(payload, data):
    """A first difference inside the anchor window rejects the match
    (None), however long the common run past it or before it."""
    window = data.draw(st.integers(1, 32))
    anchor = data.draw(st.integers(0, len(payload) - window))
    flip = anchor + data.draw(st.integers(0, window - 1))
    stored = bytearray(payload)
    stored[flip] ^= data.draw(st.integers(1, 255))
    stored = bytes(stored)
    assert assert_matches_reference(payload, anchor, stored, anchor, window,
                                    0) is None


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40), st.integers(1, 32), st.data())
def test_room_shorter_than_window_rejected(payload, window, data):
    """An anchor whose window would run past either payload's end is
    no match, even when every byte that is there agrees."""
    anchor = data.draw(st.integers(max(0, len(payload) - window + 1),
                                   len(payload) + 2))
    assert assert_matches_reference(payload, anchor, payload, anchor, window,
                                    0) is None
    assert assert_matches_reference(payload + bytes(64), 0, payload, anchor,
                                    window, 0) is None


#: expand_bounds compares this many bytes per step; the seams below sit
#: on its chunk boundaries.
CHUNK = 64
#: Common-run lengths from the anchor: empty, one byte, and every chunk
#: seam up to five chunks out with one byte either side.
SEAM_RUNS = sorted({0, 1} | {k * CHUNK + e for k in range(1, 6)
                             for e in (-1, 0, 1)})


@st.composite
def seam_pairs(draw):
    """A payload and a shifted copy whose first difference on each side
    of the anchor falls on a chunk seam, one byte either side of it, or
    nowhere: the common run can pass two chunks both ways.  The left
    limit may fall inside a chunk, and the copy may be cut so that the
    room is shorter than the window."""
    window = draw(st.integers(1, 32))
    payload = random.Random(draw(st.integers(0, 2 ** 32 - 1))).randbytes(
        13 * CHUNK)
    anchor = draw(st.integers(6 * CHUNK, 7 * CHUNK))
    copy = bytearray(payload)
    right = draw(st.one_of(st.none(), st.sampled_from(SEAM_RUNS)))
    if right is not None:                   # anchor + right differs first
        copy[anchor + right] ^= draw(st.integers(1, 255))
    left = draw(st.one_of(st.none(), st.sampled_from(SEAM_RUNS)))
    if left is not None:                    # anchor - 1 - left differs first
        copy[anchor - 1 - left] ^= draw(st.integers(1, 255))
    cut = draw(st.one_of(st.none(), st.integers(0, window - 1)))
    if cut is not None:                     # room shorter than the window
        del copy[anchor + cut:]
    prefix = draw(st.binary(max_size=CHUNK + 6))
    left_limit = draw(st.one_of(st.just(0), st.integers(0, anchor + 1)))
    return (payload, anchor, prefix + bytes(copy), anchor + len(prefix),
            window, left_limit)


@settings(max_examples=400, deadline=None)
@given(seam_pairs())
def test_expand_bounds_matches_reference_at_chunk_seams(case):
    assert_matches_reference(*case)
