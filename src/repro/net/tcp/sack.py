"""Selective acknowledgment support (RFC 2018 / RFC 6675, simplified).

Two pieces live here:

* :class:`RangeSet` — a sorted set of disjoint half-open byte ranges,
  used for the receiver's out-of-order map, the sender's SACK
  scoreboard, and the per-recovery retransmission marks.
* :func:`select_sack_blocks` — builds the (up to 3) SACK blocks a
  receiver reports, most-recently-updated range first per RFC 2018.
  The ordering is load-bearing: with more than 3 out-of-order ranges,
  always reporting the same 3 would leave the sender's scoreboard
  blind to the rest and stall recovery; recency-first rotates every
  range through the ACK stream.

The paper's testbed ran Linux TCP, which has had SACK on by default
since 2.2 — without it, the correlated losses byte caching induces
(§VI) collapse into retransmission-timeout chains far more often than
the paper observed, so SACK is part of the faithful substrate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Tuple

Range = Tuple[int, int]


class RangeSet:
    """Sorted disjoint half-open integer ranges with merge-on-add."""

    def __init__(self, ranges: Optional[Iterable[Range]] = None):
        self._starts: List[int] = []
        self._ends: List[int] = []
        if ranges:
            for start, end in ranges:
                self.add(start, end)

    def __len__(self) -> int:
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __iter__(self):
        return iter(zip(self._starts, self._ends))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spans = ", ".join(f"[{s},{e})" for s, e in self)
        return f"RangeSet({spans})"

    def add(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, merging any overlapping ranges."""
        if end <= start:
            return
        # Find all existing ranges overlapping or adjacent to [start, end).
        left = bisect_left(self._ends, start)
        right = bisect_right(self._starts, end)
        if left < right:
            start = min(start, self._starts[left])
            end = max(end, self._ends[right - 1])
        self._starts[left:right] = [start]
        self._ends[left:right] = [end]

    def remove_below(self, bound: int) -> None:
        """Drop everything strictly below ``bound``."""
        index = bisect_right(self._ends, bound)
        if index:
            del self._starts[:index]
            del self._ends[:index]
        if self._starts and self._starts[0] < bound:
            self._starts[0] = bound

    def remove(self, start: int, end: int) -> None:
        """Take ``[start, end)`` out, splitting any range it cuts."""
        if end <= start:
            return
        starts = self._starts
        ends = self._ends
        # The ranges overlapping [start, end): the first that ends after
        # ``start`` up to the first that starts at or after ``end``.
        left = bisect_right(ends, start)
        right = bisect_left(starts, end)
        if left >= right:
            return
        keep_starts: List[int] = []
        keep_ends: List[int] = []
        if starts[left] < start:
            keep_starts.append(starts[left])
            keep_ends.append(start)
        if ends[right - 1] > end:
            keep_starts.append(end)
            keep_ends.append(ends[right - 1])
        starts[left:right] = keep_starts
        ends[left:right] = keep_ends

    def clear(self) -> None:
        self._starts.clear()
        self._ends.clear()

    def contains_point(self, value: int) -> bool:
        index = bisect_right(self._starts, value) - 1
        return index >= 0 and value < self._ends[index]

    def covers(self, start: int, end: int) -> bool:
        """True if ``[start, end)`` lies entirely inside one range."""
        if end <= start:
            return True
        index = bisect_right(self._starts, start) - 1
        return index >= 0 and self._ends[index] >= end

    def coverage(self, start: int, end: int) -> int:
        """Total covered bytes within ``[start, end)``."""
        starts = self._starts
        ends = self._ends
        total = 0
        # Ranges ending at or before ``start`` contribute nothing, and
        # the scoreboard is asked several times per ACK: bisect past them.
        for index in range(bisect_right(ends, start), len(starts)):
            lo = starts[index]
            if lo >= end:
                break
            if lo < start:
                lo = start
            hi = ends[index]
            if hi > end:
                hi = end
            if hi > lo:
                total += hi - lo
        return total

    def gaps(self, start: int, end: int) -> List[Range]:
        """All uncovered sub-ranges of ``[start, end)``."""
        out: List[Range] = []
        cursor = start
        for range_start, range_end in zip(self._starts, self._ends):
            if range_end <= cursor:
                continue
            if range_start >= end:
                break
            if range_start > cursor:
                out.append((cursor, range_start))
            cursor = range_end  # past the ``continue``: range_end > cursor
        if cursor < end:
            out.append((cursor, end))
        return out

    def max_end(self) -> int:
        """Highest covered value (0 when empty)."""
        return self._ends[-1] if self._ends else 0


def select_sack_blocks(ooo: RangeSet, recent_seqs: Iterable[int] = (),
                       limit: int = 3) -> Tuple[Range, ...]:
    """Choose the SACK blocks a receiver advertises.

    ``recent_seqs`` lists recently arrived out-of-order sequence
    numbers, most recent first; the blocks containing them are reported
    first (RFC 2018 §4), then any remaining ranges lowest-first.
    """
    ranges = list(ooo)
    chosen: List[Range] = []
    for seq in recent_seqs:
        if len(chosen) >= limit:
            break
        for block in ranges:
            if block[0] <= seq < block[1] and block not in chosen:
                chosen.append(block)
                break
    for block in ranges:
        if len(chosen) >= limit:
            break
        if block not in chosen:
            chosen.append(block)
    return tuple(chosen)
