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

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``, merging any overlapping ranges.

        Returns how many values it newly covered.
        """
        if end <= start:
            return 0
        starts = self._starts
        ends = self._ends
        # Find all existing ranges overlapping or adjacent to [start, end).
        left = bisect_left(ends, start)
        right = bisect_right(starts, end)
        covered = 0
        for index in range(left, right):
            covered += ends[index] - starts[index]
        if left < right:
            if starts[left] < start:
                start = starts[left]
            if ends[right - 1] > end:
                end = ends[right - 1]
        starts[left:right] = [start]
        ends[left:right] = [end]
        # The merged range holds the ranges it absorbed and the new values.
        return end - start - covered

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

    def max_end(self) -> int:
        """Highest covered value (0 when empty)."""
        return self._ends[-1] if self._ends else 0


def walk_scoreboard(sacked: RangeSet, marked: RangeSet, una: int, nxt: int,
                    lost_end: int, data_end: int) -> Tuple[int, List[Range]]:
    """One pass over a SACK sender's scoreboard (RFC 6675).

    ``[una, nxt)`` is outstanding; ``sacked`` holds what the receiver
    reported and ``marked`` what this recovery episode resent.  An
    unsacked byte below ``lost_end`` is presumed lost unless marked.
    Returns ``(pipe, holes)``: the bytes considered in flight (flight
    less SACKed less presumed lost and not resent), and the presumed-
    lost sub-ranges below ``data_end`` -- what recovery may resend --
    in ascending order.
    """
    if lost_end > nxt:
        lost_end = nxt
    if data_end > lost_end:
        data_end = lost_end
    starts = sacked._starts
    ends = sacked._ends
    count = len(starts)
    mark_starts = marked._starts
    mark_ends = marked._ends
    mark_count = len(mark_starts)
    mark = bisect_right(mark_ends, una)
    pipe = nxt - una
    holes: List[Range] = []
    cursor = una  # every byte below it is classified
    for index in range(bisect_right(ends, una), count + 1):
        # The next SACKed range, clipped to [una, nxt); past the last
        # one, an empty range at ``nxt`` closes the final gap.
        if index < count and starts[index] < nxt:
            sack_start = starts[index]
            sack_end = ends[index]
            if sack_start < una:
                sack_start = una
            if sack_end > nxt:
                sack_end = nxt
        else:
            sack_start = sack_end = nxt
        pipe -= sack_end - sack_start
        # [cursor, sack_start) is unsacked: each byte of it below
        # ``lost_end`` that no mark covers is out of the pipe, a hole.
        gap_end = sack_start if sack_start < lost_end else lost_end
        while cursor < gap_end:
            while mark < mark_count and mark_ends[mark] <= cursor:
                mark += 1
            if mark < mark_count and mark_starts[mark] < gap_end:
                lost_to = mark_starts[mark]
                resume = mark_ends[mark]
            else:
                lost_to = resume = gap_end
            if lost_to > cursor:
                pipe -= lost_to - cursor
                if cursor < data_end:
                    holes.append((cursor, lost_to if lost_to < data_end
                                  else data_end))
            cursor = resume
        if sack_start == nxt:
            break
        if cursor < sack_end:
            cursor = sack_end
    return pipe, holes


def select_sack_blocks(ooo: RangeSet, recent_seqs: Iterable[int] = (),
                       limit: int = 3) -> Tuple[Range, ...]:
    """Choose the SACK blocks a receiver advertises.

    ``recent_seqs`` lists recently arrived out-of-order sequence
    numbers, most recent first; the blocks containing them are reported
    first (RFC 2018 §4), then any remaining ranges lowest-first.
    """
    # The lists themselves: ``list(ooo)`` would call ``__len__`` and
    # ``__iter__`` on every out-of-order arrival.
    ranges = list(zip(ooo._starts, ooo._ends))
    chosen: List[Range] = []
    count = 0  # len(chosen), kept without a call per test
    for seq in recent_seqs:
        if count >= limit:
            break
        for block in ranges:
            if block[0] <= seq < block[1] and block not in chosen:
                chosen.append(block)
                count += 1
                break
    for block in ranges:
        if count >= limit:
            break
        if block not in chosen:
            chosen.append(block)
            count += 1
    return tuple(chosen)
