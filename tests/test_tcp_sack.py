"""Unit tests for the SACK range set and block selection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.tcp.sack import RangeSet, select_sack_blocks

from tests.reference_tcp import gaps


class TestRangeSet:
    def test_add_and_iterate(self):
        ranges = RangeSet()
        ranges.add(10, 20)
        ranges.add(30, 40)
        assert list(ranges) == [(10, 20), (30, 40)]

    def test_empty_range_ignored(self):
        ranges = RangeSet()
        ranges.add(10, 10)
        ranges.add(10, 5)
        assert not ranges

    def test_merge_overlapping(self):
        ranges = RangeSet([(10, 20), (15, 30)])
        assert list(ranges) == [(10, 30)]

    def test_merge_adjacent(self):
        ranges = RangeSet([(10, 20), (20, 30)])
        assert list(ranges) == [(10, 30)]

    def test_merge_spanning_several(self):
        ranges = RangeSet([(0, 5), (10, 15), (20, 25)])
        ranges.add(4, 21)
        assert list(ranges) == [(0, 25)]

    def test_insert_between(self):
        ranges = RangeSet([(0, 5), (20, 25)])
        ranges.add(10, 15)
        assert list(ranges) == [(0, 5), (10, 15), (20, 25)]

    def test_contains_point(self):
        ranges = RangeSet([(10, 20)])
        assert ranges.contains_point(10)
        assert ranges.contains_point(19)
        assert not ranges.contains_point(20)
        assert not ranges.contains_point(9)

    def test_covers(self):
        ranges = RangeSet([(10, 30)])
        assert ranges.covers(10, 30)
        assert ranges.covers(15, 25)
        assert not ranges.covers(5, 15)
        assert not ranges.covers(25, 35)
        assert ranges.covers(5, 5)  # empty range trivially covered

    def test_coverage_partial(self):
        ranges = RangeSet([(10, 20), (30, 40)])
        assert ranges.coverage(0, 50) == 20
        assert ranges.coverage(15, 35) == 10
        assert ranges.coverage(20, 30) == 0

    def test_remove_below(self):
        ranges = RangeSet([(10, 20), (30, 40)])
        ranges.remove_below(15)
        assert list(ranges) == [(15, 20), (30, 40)]
        ranges.remove_below(25)
        assert list(ranges) == [(30, 40)]

    @pytest.mark.parametrize("cut, left", [
        ((12, 18), [(10, 12), (18, 20), (30, 40), (50, 60)]),   # inside
        ((15, 35), [(10, 15), (35, 40), (50, 60)]),             # straddling
        ((5, 55), [(55, 60)]),                                  # several
        ((10, 20), [(30, 40), (50, 60)]),                       # exact
        ((25, 25), [(10, 20), (30, 40), (50, 60)]),             # empty
        ((20, 30), [(10, 20), (30, 40), (50, 60)]),             # no overlap
        ((60, 90), [(10, 20), (30, 40), (50, 60)]),             # above all
    ])
    def test_remove(self, cut, left):
        ranges = RangeSet([(10, 20), (30, 40), (50, 60)])
        ranges.remove(*cut)
        assert list(ranges) == left

    def test_gaps(self):
        ranges = RangeSet([(10, 20), (30, 40)])
        assert gaps(ranges, 0, 50) == [(0, 10), (20, 30), (40, 50)]
        assert gaps(ranges, 10, 40) == [(20, 30)]
        assert gaps(RangeSet(), 5, 8) == [(5, 8)]

    def test_max_end(self):
        assert RangeSet().max_end() == 0
        assert RangeSet([(10, 20), (30, 40)]).max_end() == 40

    def test_clear(self):
        ranges = RangeSet([(1, 2)])
        ranges.clear()
        assert not ranges


_SPAN = 64
_bounds = st.tuples(st.integers(0, _SPAN), st.integers(0, _SPAN))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["add", "remove", "remove_below"]), _bounds),
    max_size=30), _bounds)
def test_range_set_matches_set_of_ints(operations, query):
    ranges = RangeSet()
    model = set()
    for name, (start, end) in operations:
        if name == "add":
            grown = len(model)
            added = ranges.add(start, end)
            model.update(range(start, end))
            assert added == len(model) - grown
        elif name == "remove":
            ranges.remove(start, end)
            model.difference_update(range(start, end))
        else:
            ranges.remove_below(start)
            model = {value for value in model if value >= start}
        spans = list(ranges)
        assert all(lo < hi for lo, hi in spans)
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
        assert {v for lo, hi in spans for v in range(lo, hi)} == model
    start, end = query
    inside = set(range(start, end))
    assert ranges.coverage(start, end) == len(model & inside)
    uncovered = gaps(ranges, start, end)
    assert {v for lo, hi in uncovered for v in range(lo, hi)} == inside - model


class TestSelectSackBlocks:
    def test_limit_three(self):
        ooo = RangeSet([(10, 20), (30, 40), (50, 60), (70, 80)])
        blocks = select_sack_blocks(ooo)
        assert len(blocks) == 3

    def test_recent_first(self):
        ooo = RangeSet([(10, 20), (30, 40), (50, 60)])
        blocks = select_sack_blocks(ooo, recent_seqs=[55, 32])
        assert blocks[0] == (50, 60)
        assert blocks[1] == (30, 40)

    def test_recent_rotation_covers_all_ranges(self):
        """With >3 ranges, recency ordering must let every range appear
        across successive ACKs (the sender-starvation regression)."""
        ooo = RangeSet([(10, 20), (30, 40), (50, 60), (70, 80)])
        first = select_sack_blocks(ooo, recent_seqs=[75])
        assert (70, 80) in first
        second = select_sack_blocks(ooo, recent_seqs=[15, 75])
        assert (10, 20) == second[0]

    def test_duplicate_recent_seqs_deduped(self):
        ooo = RangeSet([(10, 20)])
        blocks = select_sack_blocks(ooo, recent_seqs=[12, 15, 11])
        assert blocks == ((10, 20),)

    def test_empty(self):
        assert select_sack_blocks(RangeSet()) == ()
