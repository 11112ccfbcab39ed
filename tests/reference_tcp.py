"""The SACK sender's recovery loop as it was before one walk per call.

``TCPConnection._sack_transmit`` once recomputed the RFC 6675 pipe and
the next hole from scratch on every turn of its loop, through three
helpers (``_loss_domain_end``, ``_pipe``, ``_next_hole``) that asked
the scoreboard's ``RangeSet``s for gaps and coverage.  Production now
walks the scoreboard once per call and updates the pipe by arithmetic.
This module keeps the old loop, line for line, as a pure function over
a :class:`Snapshot` of the sender, so a differential test can hold the
new loop to it decision by decision.  :func:`gaps`, which was
``RangeSet.gaps`` until the old loop was its last caller, lives here
with it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.net.tcp.sack import RangeSet

Range = Tuple[int, int]


def gaps(ranges: RangeSet, start: int, end: int) -> List[Range]:
    """All sub-ranges of ``[start, end)`` that ``ranges`` leaves uncovered."""
    starts = ranges._starts
    ends = ranges._ends
    out: List[Range] = []
    cursor = start
    # Bisect past the ranges ending at or before ``start``.
    for index in range(bisect_right(ends, start), len(starts)):
        range_start = starts[index]
        if range_start >= end:
            break
        if range_start > cursor:
            out.append((cursor, range_start))
        cursor = ends[index]
    if cursor < end:
        out.append((cursor, end))
    return out


@dataclass(frozen=True)
class Snapshot:
    """What ``_sack_transmit`` reads of a connection.

    ``buffer_end`` is the sequence number one past the last queued
    application byte; ``fin_seq`` is set once the FIN has been sent.
    """

    una: int
    nxt: int
    buffer_end: int
    sacked: Tuple[Range, ...]
    marked: Tuple[Range, ...]
    rto_mode: bool
    recovery_point: Optional[int]
    cwnd: int
    peer_rwnd: int
    mss: int
    fin_queued: bool = False
    fin_seq: Optional[int] = None


class _Sender:
    """The old loop's methods, over a snapshot's state; ``sent``
    records each send decision in order."""

    def __init__(self, snap: Snapshot):
        self.snap = snap
        self.snd_una = snap.una
        self.snd_nxt = snap.nxt
        self._sacked = RangeSet(snap.sacked)
        self._retx_marked = RangeSet(snap.marked)
        self._fin_seq = snap.fin_seq
        self.sent: List[tuple] = []

    def _loss_domain_end(self) -> int:
        snap = self.snap
        if snap.rto_mode and snap.recovery_point is not None:
            return min(snap.recovery_point, self.snd_nxt)
        return min(self._sacked.max_end(), self.snd_nxt)

    def pipe(self) -> int:
        flight = self.snd_nxt - self.snd_una
        sacked = self._sacked.coverage(self.snd_una, self.snd_nxt)
        lost = 0
        domain_end = self._loss_domain_end()
        for gap_start, gap_end in gaps(self._sacked, self.snd_una, domain_end):
            lost += (gap_end - gap_start) - self._retx_marked.coverage(
                gap_start, gap_end)
        return flight - sacked - lost

    def _next_hole(self) -> Optional[Range]:
        data_end = min(self._loss_domain_end(), self.snap.buffer_end)
        for gap_start, gap_end in gaps(self._sacked, self.snd_una, data_end):
            for sub_start, sub_end in gaps(self._retx_marked, gap_start,
                                           gap_end):
                if sub_end > sub_start:
                    return (sub_start,
                            min(sub_end, sub_start + self.snap.mss))
        return None

    def _retransmit_range(self, start: int, end: int) -> None:
        if end <= start:
            return
        if start >= self.snap.buffer_end:
            if self._fin_seq is not None and start == self._fin_seq:
                self.sent.append(("fin", self._fin_seq))
            return
        self.sent.append(("retransmit", start, end))
        self._retx_marked.add(start, end)

    def _send_new_data_once(self) -> bool:
        chunk_len = self.snap.buffer_end - self.snd_nxt
        if chunk_len <= 0:
            return False
        if chunk_len > self.snap.mss:
            chunk_len = self.snap.mss
        self.sent.append(("new", self.snd_nxt, self.snd_nxt + chunk_len))
        self.snd_nxt += chunk_len
        return True

    def _maybe_send_fin(self) -> None:
        if not self.snap.fin_queued or self._fin_seq is not None:
            return
        if self.snd_nxt < self.snap.buffer_end:
            return
        self._fin_seq = self.snap.buffer_end
        self.sent.append(("fin", self._fin_seq))
        self.snd_nxt = self._fin_seq + 1

    def sack_transmit(self, force_front: bool) -> None:
        mss = self.snap.mss
        if force_front and not self._retx_marked.contains_point(self.snd_una) \
                and not self._sacked.contains_point(self.snd_una):
            self._retransmit_range(self.snd_una,
                                   min(self.snd_una + mss,
                                       self.snap.buffer_end))
        budget = 200
        while budget > 0:
            budget -= 1
            if self.pipe() + mss > self.snap.cwnd:
                break
            hole = self._next_hole()
            if hole is not None:
                self._retransmit_range(hole[0], hole[1])
                continue
            if self.snd_nxt - self.snd_una + mss > self.snap.peer_rwnd:
                break
            if not self._send_new_data_once():
                break
        self._maybe_send_fin()


def pipe(snap: Snapshot) -> int:
    """RFC 6675 pipe of ``snap``, as the old loop computed it."""
    return _Sender(snap).pipe()


def sack_transmit(snap: Snapshot, force_front: bool = False
                  ) -> Tuple[List[tuple], Snapshot, int]:
    """The old ``_sack_transmit`` over ``snap``.

    Returns the send decisions in order -- ``("retransmit", start,
    end)``, ``("new", start, end)`` or ``("fin", seq)`` -- the snapshot
    they leave behind, and its pipe.
    """
    sender = _Sender(snap)
    sender.sack_transmit(force_front)
    after = replace(snap, nxt=sender.snd_nxt,
                    marked=tuple(sender._retx_marked),
                    fin_seq=sender._fin_seq)
    return sender.sent, after, sender.pipe()
