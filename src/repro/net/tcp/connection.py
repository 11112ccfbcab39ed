"""TCP connection state machine (simulation grade).

Implements the pieces of TCP that the paper's phenomena depend on:

* three-way handshake and FIN teardown;
* cumulative ACKs with out-of-order reassembly, duplicate-ACK
  generation and SACK blocks at the receiver (RFC 2018);
* Reno congestion control with SACK-based loss recovery (slow start /
  congestion avoidance / fast retransmit / fast recovery with an
  RFC 6675-style scoreboard and pipe algorithm) — :mod:`.congestion`
  and :mod:`.sack`;
* lost-retransmission detection: a resent range that is still a hole
  once data sent after the resend has been SACKed is presumed lost and
  resent within the same recovery episode (Linux 2.6.24-4.3
  ``tcp_mark_lost_retrans``, RACK since 4.4) — RFC 6675 alone leaves
  that case to the 200 ms RTO, ~23 round trips on the Fig. 3 path;
* limited transmit (RFC 3042) to keep the ACK clock alive at small
  windows;
* Jacobson/Karels RTO with Karn's rule and exponential backoff —
  :mod:`.timer` — with the backoff cleared whenever an ACK advances
  ``snd_una`` (Linux behaviour; without it a retransmission-heavy phase
  pins the RTO at its maximum);
* bounded retransmission attempts: a segment retransmitted more than
  ``max_retries`` consecutive times aborts the connection, which is the
  observable "TCP connection stall" of §IV.

End-to-end integrity: every data segment carries a checksum over its
original payload; the receiving endpoint verifies it after any
byte-caching reconstruction and drops mismatching segments, playing the
role of the real TCP checksum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ...core.checksum import payload_checksum, verify_payload
from ...sim.engine import Simulator, Timer
from ..packet import TCPSegment
from .congestion import make_congestion_control
from .sack import RangeSet, select_sack_blocks, walk_scoreboard
from .timer import RtoEstimator

#: Handshake retransmissions before a connection aborts (Linux
#: ``tcp_syn_retries``): 7 SYNs in all, backing off from the 1 s
#: initial RTO.
SYN_RETRIES = 6
#: Duplicate ACKs (or SACKed segments) that signal a loss (RFC 5681).
DUP_ACK_THRESHOLD = 3


@dataclass
class TCPConfig:
    """Tunables for a simulated TCP endpoint."""

    mss: int = 1460
    rwnd: int = 262144
    min_rto: float = 0.2
    max_rto: float = 8.0
    max_retries: int = 12
    congestion: str = "reno"        # "reno" | "cubic"


@dataclass
class TCPStats:
    """Per-connection counters."""

    segments_sent: int = 0
    segments_received: int = 0
    bytes_sent: int = 0            # payload bytes, first transmissions
    bytes_delivered: int = 0       # in-order bytes handed to the app
    retransmissions: int = 0
    timeouts: int = 0
    # Why the timer fired with data outstanding (handshake timeouts are
    # in ``timeouts`` only): the front hole's retransmission is marked
    # in flight and was lost; nothing at all is SACKed (tail loss, or
    # the whole window gone); or something is SACKed but too little to
    # reach the dup-ACK threshold, so recovery never started.
    timeouts_lost_retransmit: int = 0
    timeouts_no_feedback: int = 0
    timeouts_below_dupthresh: int = 0
    lost_retransmits: int = 0      # retransmissions detected lost by SACK
    fast_retransmits: int = 0
    dup_acks_received: int = 0
    dup_acks_sent: int = 0
    checksum_drops: int = 0
    out_of_order_segments: int = 0
    sack_retransmissions: int = 0


class TCPState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn_sent"
    SYN_RCVD = "syn_rcvd"
    ESTABLISHED = "established"
    FIN_SENT = "fin_sent"
    DONE = "done"
    ABORTED = "aborted"


# Flag bits and state groups the per-segment path tests; module
# constants so an arriving segment costs no property calls.
_FIN = TCPSegment.FIN
_SYN = TCPSegment.SYN
_RST = TCPSegment.RST
_ACK = TCPSegment.ACK
_SYN_ACK = _SYN | _ACK
_DATA_STATES = (TCPState.ESTABLISHED, TCPState.FIN_SENT)
_CLOSED_STATES = (TCPState.DONE, TCPState.ABORTED)


class TCPConnection:
    """One endpoint of a simulated TCP connection.

    Interface (socket-like)::

        conn.on_receive = lambda data: ...
        conn.on_established = lambda: ...
        conn.on_remote_close = lambda: ...   # peer's FIN (EOF)
        conn.on_close = lambda reason: ...   # "fin", "stalled", ...
        conn.send(data)
        conn.close()

    The stack (owner) provides ``transmit(segment)`` which wraps the
    segment in an IP packet and hands it to the host.
    """

    def __init__(self, sim: Simulator, transmit: Callable[[TCPSegment], None],
                 local_addr: str, local_port: int,
                 remote_addr: str, remote_port: int,
                 config: Optional[TCPConfig] = None,
                 iss: int = 0):
        self.sim = sim
        self._transmit = transmit
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.config = config if config is not None else TCPConfig()
        #: Window advertised in every segment (the receive buffer never
        #: fills: data is handed to the app as it arrives).
        self._advertised_window = min(self.config.rwnd, 0xFFFFFFF)
        self.state = TCPState.CLOSED
        self.stats = TCPStats()

        # ---- sender state
        self.iss = iss
        self.snd_una = iss           # oldest unacknowledged sequence number
        self.snd_nxt = iss           # next sequence number to send
        self._buffer = bytearray()   # unsent + unacked application bytes
        self._buffer_seq = iss + 1   # seq of _buffer[0]
        self._fin_queued = False
        self._fin_seq: Optional[int] = None
        self._peer_rwnd = 0xFFFF
        self._dup_ack_count = 0
        self._retx_count = 0
        # Single in-progress RTT measurement: (end_seq, tx_time).  Any
        # retransmission invalidates it — a cumulative ACK that arrives
        # after hole repairs would otherwise be measured as a
        # multi-second "RTT" and blow up the RTO estimate.
        self._timing: Optional[tuple] = None
        self._sacked = RangeSet()               # receiver-reported holes filled
        self._retx_marked = RangeSet()          # retransmitted this recovery
        # (start, end, snd_nxt when resent) for each range marked above,
        # in send order: what _detect_lost_retransmits needs to tell a
        # retransmission still in flight from one that was lost as well.
        self._retx_sent: list = []
        self._recovery_point: Optional[int] = None
        self._rto_mode = False                  # recovery entered via RTO
        self.rto = RtoEstimator(min_rto=self.config.min_rto,
                                max_rto=self.config.max_rto)
        self.cc = make_congestion_control(
            self.config.congestion, self.config.mss, clock=lambda: sim.now)
        self._retx_timer = Timer(sim, self._on_rto)

        # ---- receiver state
        self.irs: Optional[int] = None
        self.rcv_nxt: Optional[int] = None
        self._ooo_data: Dict[int, bytes] = {}
        self._ooo_ranges = RangeSet()
        self._recent_ooo_seqs: list = []   # most recent first, for SACK
        self._remote_fin_seq: Optional[int] = None
        self._remote_fin_delivered = False

        # ---- app callbacks
        self.on_receive: Optional[Callable[[bytes], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[str], None]] = None
        self.on_remote_close: Optional[Callable[[], None]] = None

        # ---- timeline markers for metrics
        self.established_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.close_reason: Optional[str] = None

        # Duck-typed causal span recorder (repro.metrics.spans).  When
        # set, retransmissions emit a ``tcp_retransmit`` span linked to
        # the original segment's trace — the hop that ties a receiver
        # stall back to the encoder decision that caused it.  Costs one
        # ``is not None`` check per retransmission when absent.
        self.spans = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state is not TCPState.CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = TCPState.SYN_SENT
        self.snd_nxt = self.iss + 1   # SYN consumes one sequence number
        self._send_segment(TCPSegment.SYN, seq=self.iss)
        self._retx_timer.start(self.rto.rto)

    def send(self, data: bytes) -> None:
        """Queue application data for transmission."""
        if self.state in _CLOSED_STATES:
            raise RuntimeError(f"send() on closed connection ({self.state})")
        if self._fin_queued:
            raise RuntimeError("send() after close()")
        self._buffer.extend(data)
        self._try_send()

    def close(self) -> None:
        """Half-close: FIN goes out once all queued data has been sent."""
        if self._fin_queued or self.state in _CLOSED_STATES:
            return
        self._fin_queued = True
        self._try_send()

    def abort(self, reason: str = "aborted") -> None:
        """Tear the connection down immediately."""
        self._finish(TCPState.ABORTED, reason)

    @property
    def is_open(self) -> bool:
        return self.state in (TCPState.SYN_SENT, TCPState.SYN_RCVD,
                              TCPState.ESTABLISHED, TCPState.FIN_SENT)

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # passive open (used by the stack's listener)
    # ------------------------------------------------------------------

    def accept_syn(self, segment: TCPSegment) -> None:
        """Passive open: a SYN arrived for a listening port."""
        self.state = TCPState.SYN_RCVD
        self.irs = segment.seq
        self.rcv_nxt = segment.seq + 1
        self.snd_nxt = self.iss + 1
        self._send_segment(TCPSegment.SYN | TCPSegment.ACK, seq=self.iss)
        self._retx_timer.start(self.rto.rto)

    # ------------------------------------------------------------------
    # segment arrival
    # ------------------------------------------------------------------

    def segment_arrived(self, segment: TCPSegment) -> None:
        """Entry point from the stack's demultiplexer."""
        self.stats.segments_received += 1
        flags = segment.flags

        if flags & _RST:
            self._finish(TCPState.ABORTED, "reset")
            return

        if self.state is TCPState.SYN_SENT:
            self._handle_in_syn_sent(segment)
            return
        if self.state is TCPState.SYN_RCVD:
            if flags & _ACK and segment.ack > self.iss:
                self._become_established()
            elif flags & _SYN:
                # Retransmitted SYN: the SYN-ACK was lost; resend it.
                self._send_segment(_SYN_ACK, seq=self.iss)
                return
            # fall through: the ACK may carry data

        if self.state not in _DATA_STATES:
            return

        if flags & _SYN:
            # Stray retransmitted SYN: the peer never saw our SYN-ACK.
            self._send_segment(_SYN_ACK, seq=self.iss)
            return

        if flags & _ACK:
            window = segment.window
            mss = self.config.mss
            self._peer_rwnd = window if window > mss else mss
            # With nothing in flight and no SACK blocks, an ACK can change
            # only the window -- the case for every data segment the
            # receiving end of a transfer takes.
            if self.snd_nxt != self.snd_una or segment.sack_blocks:
                self._process_ack(segment)

        if segment.data or flags & _FIN:
            self._process_payload(segment)

    # ------------------------------------------------------------------
    # handshake helpers
    # ------------------------------------------------------------------

    def _handle_in_syn_sent(self, segment: TCPSegment) -> None:
        if (segment.flags & _SYN_ACK != _SYN_ACK
                or segment.ack != self.iss + 1):
            return
        self.irs = segment.seq
        self.rcv_nxt = segment.seq + 1
        self.snd_una = segment.ack
        self._peer_rwnd = segment.window
        self._retx_count = 0
        self._become_established()
        self._send_ack()
        self._try_send()

    def _become_established(self) -> None:
        if self.state is TCPState.ESTABLISHED:
            return
        self.state = TCPState.ESTABLISHED
        self.established_at = self.sim.now
        self._retx_timer.stop()
        self._retx_count = 0
        if self.on_established is not None:
            self.on_established()

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------

    def _effective_window(self) -> int:
        window = self.cc.window()
        if self._peer_rwnd < window:
            window = self._peer_rwnd
        if 0 < self._dup_ack_count < DUP_ACK_THRESHOLD:
            # RFC 3042 limited transmit: the first two duplicate ACKs
            # each allow one new segment, keeping the ACK clock alive
            # when the window is too small for fast retransmit.
            window += self._dup_ack_count * self.config.mss
        return window

    def _try_send(self) -> None:
        """Transmit as much new data as the windows allow."""
        if self.state not in _DATA_STATES:
            return
        if self._recovery_point is not None:
            self._sack_transmit()
            return
        mss = self.config.mss
        limit = self.snd_una + self._effective_window()
        buffer_end = self._buffer_seq + len(self._buffer)
        while self.snd_nxt < buffer_end:
            chunk_len = buffer_end - self.snd_nxt
            if chunk_len > mss:
                chunk_len = mss
            if self.snd_nxt + chunk_len > limit:
                # Never emit a window-truncated runt: segments stay
                # MSS-quantised (as Linux does), which keeps packet
                # boundaries identical across retransmissions — a
                # boundary-shifted copy would poison the byte caches
                # with same-fingerprint-different-payload entries.
                break
            self._send_data_segment(self.snd_nxt, chunk_len, fresh=True)
            self.snd_nxt += chunk_len
        # The guards are tested here, not in the callees: nearly every
        # ACK finds no FIN to send and the timer already armed.
        if self._fin_queued and self._fin_seq is None \
                and self.snd_nxt >= buffer_end:
            self._send_fin(buffer_end)
        if self.snd_nxt > self.snd_una and not self._retx_timer.armed:
            self._retx_timer.start(self.rto.rto)

    def _send_fin(self, fin_seq: int) -> None:
        """Send the FIN at ``fin_seq``, the end of the send buffer.

        The caller has checked that a close was requested, the FIN is
        not yet sent and every queued byte is on the wire.
        """
        self._fin_seq = fin_seq
        self._send_segment(TCPSegment.FIN | TCPSegment.ACK, seq=fin_seq)
        self.snd_nxt = fin_seq + 1
        self.state = TCPState.FIN_SENT
        if not self._retx_timer.armed:
            self._retx_timer.start(self.rto.rto)

    def _send_data_segment(self, seq: int, length: int, fresh: bool) -> None:
        """Send ``length`` buffered bytes from ``seq``."""
        start = seq - self._buffer_seq
        data = bytes(self._buffer[start: start + length])
        flags = TCPSegment.ACK | TCPSegment.PSH
        segment = TCPSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=seq, ack=self.rcv_nxt if self.rcv_nxt is not None else 0,
            flags=flags, window=self._advertised_window,
            data=data, checksum=payload_checksum(data))
        if fresh:
            self.stats.bytes_sent += length
            if self._timing is None:
                self._timing = (seq + length, self.sim.now)
        else:
            self.stats.retransmissions += 1
            self._timing = None  # Karn: a retransmission spoils the sample
            spans = self.spans
            if spans is not None:
                spans.note_retransmit(
                    f"tcp:{self.local_addr}:{self.local_port}",
                    (self.local_addr, self.local_port,
                     self.remote_addr, self.remote_port),
                    seq, length)
        self.stats.segments_sent += 1
        self._transmit(segment)

    def _send_segment(self, flags: int, seq: int,
                      sack_blocks: tuple = ()) -> None:
        """Send a zero-data control segment (SYN / FIN / bare ACK)."""
        options_size = 10 + 8 * len(sack_blocks) if sack_blocks else 0
        segment = TCPSegment(
            src_port=self.local_port, dst_port=self.remote_port,
            seq=seq,
            ack=self.rcv_nxt if self.rcv_nxt is not None else 0,
            flags=flags, window=self._advertised_window,
            options_size=options_size, sack_blocks=sack_blocks)
        self.stats.segments_sent += 1
        self._transmit(segment)

    def _send_ack(self) -> None:
        blocks: tuple = ()
        # The dict is empty exactly when ``_ooo_ranges`` is, and tests
        # without a call.
        if self._ooo_data:
            blocks = select_sack_blocks(self._ooo_ranges,
                                        self._recent_ooo_seqs)
        self._send_segment(TCPSegment.ACK, seq=self.snd_nxt,
                           sack_blocks=blocks)

    # ------------------------------------------------------------------
    # ACK processing (sender side)
    # ------------------------------------------------------------------

    def _process_ack(self, segment: TCPSegment) -> None:
        """Sender side of an ACK (``segment_arrived`` took its window)."""
        ack = segment.ack
        if ack > self.snd_nxt:
            return  # acks data we never sent; ignore

        # The common ACK carries no blocks and leaves the scoreboard be.
        sack_advanced = (self._absorb_sack(segment) if segment.sack_blocks
                         else False)
        if sack_advanced and self._retx_sent:
            self._detect_lost_retransmits(ack)

        if ack > self.snd_una:
            self._handle_new_ack(ack)
            return

        if ack == self.snd_una and self.snd_nxt > ack and not segment.data:
            self.stats.dup_acks_received += 1
            self._dup_ack_count += 1
            if self._dup_ack_count < DUP_ACK_THRESHOLD \
                    and not self._should_enter_recovery():
                self._try_send()  # limited transmit
            elif self._recovery_point is None:
                self._enter_recovery()
            else:
                self.cc.on_dup_ack_in_recovery()
                self._try_send()
        elif sack_advanced and self._recovery_point is not None:
            self._sack_transmit()

    def _handle_new_ack(self, ack: int) -> None:
        acked = ack - self.snd_una
        self.snd_una = ack
        self._retx_count = 0
        self._dup_ack_count = 0
        # Forward progress clears RTO backoff (Linux resets icsk_backoff
        # when snd_una advances; without this a retransmission-heavy
        # phase pins the RTO at max_rto and the connection crawls).
        self.rto.reset_backoff()
        self._sample_rtt(ack)
        self._trim_buffer(ack)
        self._sacked.remove_below(ack)
        self._retx_marked.remove_below(ack)

        if self._recovery_point is not None:
            if ack >= self._recovery_point:
                self._exit_recovery()
            else:
                # NewReno/RFC 6675 partial ACK: keep filling holes.
                self.cc.on_new_ack(acked, self.snd_una)
                self._sack_transmit(force_front=True)
                self._retx_timer.start(self.rto.rto)
                return
        else:
            self.cc.on_new_ack(acked, self.snd_una)

        if self.snd_nxt > ack:
            self._retx_timer.start(self.rto.rto)
        else:
            self._retx_timer.stop()
        self._check_send_complete()
        self._try_send()

    def _absorb_sack(self, segment: TCPSegment) -> bool:
        """Fold a segment's (non-empty) SACK blocks into the scoreboard;
        True if they covered anything new."""
        una = self.snd_una
        nxt = self.snd_nxt
        sacked = self._sacked
        added = 0
        for start, end in segment.sack_blocks:
            if end > una:
                added += sacked.add(start if start > una else una,
                                    end if end < nxt else nxt)
        return added > 0

    def _detect_lost_retransmits(self, ack: int) -> None:
        """Un-mark retransmissions that were themselves lost.

        A resent range that is still a hole once data sent *after* the
        resend has been SACKed did not arrive (Linux 2.6.24-4.3
        ``tcp_mark_lost_retrans``; RACK since 4.4).  Taking it out of
        ``_retx_marked`` makes it a presumed-lost hole again, so the
        next scoreboard walk stops counting it in flight and
        ``_sack_transmit`` resends it inside this episode instead of
        leaving it to the RTO.  The window is not reduced a second time
        (Linux made no change).
        """
        floor = max(ack, self.snd_una)
        highest_sacked = self._sacked.max_end()
        retx_sent = self._retx_sent
        settled = 0
        for start, end, sent_at in retx_sent:
            if sent_at >= highest_sacked:
                break  # in send order: everything after is later still
            settled += 1
            if end > floor and not self._sacked.covers(max(start, floor),
                                                       end):
                self.stats.lost_retransmits += 1
                self._retx_marked.remove(start, end)
        del retx_sent[:settled]

    def _should_enter_recovery(self) -> bool:
        """RFC 6675 trigger: enough SACKed bytes imply a loss."""
        sacked = self._sacked.coverage(self.snd_una, self.snd_nxt)
        return sacked > (DUP_ACK_THRESHOLD - 1) * self.config.mss

    def _enter_recovery(self) -> None:
        self.stats.fast_retransmits += 1
        self._recovery_point = self.snd_nxt
        self._clear_retx_marks()
        self.cc.on_fast_retransmit(self.flight_size, self.snd_nxt)
        self._sack_transmit(force_front=True)
        self._retx_timer.start(self.rto.rto)

    def _exit_recovery(self) -> None:
        self._recovery_point = None
        self._rto_mode = False
        self._clear_retx_marks()
        if self.cc.in_fast_recovery:
            self.cc.on_new_ack(0, self.snd_una)  # full-ACK deflation

    # -- SACK-based recovery transmission ---------------------------------

    def _sack_transmit(self, force_front: bool = False) -> None:
        """Fill holes / send new data while the pipe has room.

        The scoreboard is walked once per call, after any forced resend
        of the front segment.  Nothing sent below changes what is
        SACKed, the loss domain or the buffer (links and fault
        injectors only post events), so a resend adds its length to the
        pipe and moves past its hole, and a new segment adds its length
        to the pipe and the flight.
        """
        mss = self.config.mss
        buffer_end = self._buffer_seq + len(self._buffer)
        una = self.snd_una
        if force_front and not self._retx_marked.contains_point(una) \
                and not self._sacked.contains_point(una):
            self._retransmit_range(una, min(una + mss, buffer_end))
        nxt = self.snd_nxt
        # Unsacked bytes presumed lost: after an RTO everything
        # outstanding (go-back-N over the scoreboard); in SACK fast
        # recovery only those below the highest SACKed byte (RFC 6675).
        if self._rto_mode and self._recovery_point is not None:
            lost_end = self._recovery_point
        else:
            lost_end = self._sacked.max_end()
        pipe, holes = walk_scoreboard(self._sacked, self._retx_marked,
                                      una, nxt, lost_end, buffer_end)
        hole = 0
        hole_count = len(holes)
        cwnd = self.cc.window()
        rwnd = self._peer_rwnd
        flight = nxt - una
        budget = 200  # hard bound on work per ACK
        while budget > 0:
            budget -= 1
            if pipe + mss > cwnd:
                break
            if hole < hole_count:
                start, end = holes[hole]
                if end - start > mss:
                    holes[hole] = (start + mss, end)
                    end = start + mss
                else:
                    hole += 1
                self._retransmit_range(start, end)
                pipe += end - start
                continue
            # New data is additionally bounded by the peer's window:
            # outstanding (unacked) bytes must never exceed it.
            if flight + mss > rwnd:
                break
            length = buffer_end - nxt
            if length <= 0:
                break
            if length > mss:
                length = mss
            self._send_data_segment(nxt, length, fresh=True)
            nxt += length
            self.snd_nxt = nxt
            pipe += length
            flight += length
        if self._fin_queued and self._fin_seq is None and nxt >= buffer_end:
            self._send_fin(buffer_end)

    def _retransmit_range(self, start: int, end: int) -> None:
        if end <= start:
            return
        self.stats.sack_retransmissions += 1
        self._send_data_segment(start, end - start, fresh=False)
        self._retx_marked.add(start, end)
        self._retx_sent.append((start, end, self.snd_nxt))

    def _clear_retx_marks(self) -> None:
        self._retx_marked.clear()
        self._retx_sent.clear()

    def _retransmit_front(self) -> None:
        """Retransmit the earliest unacknowledged segment."""
        if self.state is TCPState.SYN_SENT:
            self._send_segment(TCPSegment.SYN, seq=self.iss)
            return
        if self.state is TCPState.SYN_RCVD:
            self._send_segment(TCPSegment.SYN | TCPSegment.ACK, seq=self.iss)
            return
        if self._fin_seq is not None and self.snd_una == self._fin_seq:
            self._send_segment(TCPSegment.FIN | TCPSegment.ACK, seq=self._fin_seq)
            return
        seq = self.snd_una
        end = min(seq + self.config.mss,
                  self._buffer_seq + len(self._buffer))
        if end <= seq:
            return
        # Goes through _retransmit_range so the recovery scoreboard
        # knows this range is back in the pipe.
        self._retransmit_range(seq, end)

    def _sample_rtt(self, ack: int) -> None:
        if self._timing is None:
            return
        end_seq, tx_time = self._timing
        if ack >= end_seq:
            self._timing = None
            self.rto.sample(self.sim.now - tx_time)

    def _trim_buffer(self, ack: int) -> None:
        """Release acknowledged bytes from the send buffer."""
        end = self._buffer_seq + len(self._buffer)
        if ack < end:
            end = ack
        if end > self._buffer_seq:
            del self._buffer[: end - self._buffer_seq]
            self._buffer_seq = end

    def _check_send_complete(self) -> None:
        if (self.state is TCPState.FIN_SENT and self._fin_seq is not None
                and self.snd_una > self._fin_seq):
            self._finish(TCPState.DONE, "fin")

    # ------------------------------------------------------------------
    # retransmission timeout
    # ------------------------------------------------------------------

    def _on_rto(self) -> None:
        handshake = self.state in (TCPState.SYN_SENT, TCPState.SYN_RCVD)
        if self.flight_size == 0 and not handshake:
            return
        self._retx_count += 1
        self.stats.timeouts += 1
        if not handshake:
            self._classify_timeout()
        max_retries = (SYN_RETRIES if handshake
                       else self.config.max_retries)
        if self._retx_count > max_retries:
            self._finish(TCPState.ABORTED, "stalled")
            return
        self.cc.on_timeout(self.flight_size)
        self.rto.back_off()
        self._dup_ack_count = 0
        # An RTO starts a go-back-N recovery episode: everything
        # outstanding and unsacked is presumed lost and will be resent
        # as the (collapsed, slow-starting) window allows.  The SACK
        # scoreboard itself stays valid — SACKed data is not resent.
        if not handshake:
            self._recovery_point = self.snd_nxt
            self._rto_mode = True
        self._clear_retx_marks()
        self._retransmit_front()
        self._retx_timer.start(self.rto.rto)

    def _classify_timeout(self) -> None:
        """Book a data-state RTO under the reason recovery missed it."""
        stats = self.stats
        if self._recovery_point is not None \
                and self._retx_marked.contains_point(self.snd_una):
            stats.timeouts_lost_retransmit += 1
        elif not self._sacked:
            stats.timeouts_no_feedback += 1
        else:
            stats.timeouts_below_dupthresh += 1

    # ------------------------------------------------------------------
    # receiver internals
    # ------------------------------------------------------------------

    def _process_payload(self, segment: TCPSegment) -> None:
        assert self.rcv_nxt is not None

        data = segment.data
        if data and not verify_payload(data, segment.checksum):
            self.stats.checksum_drops += 1
            return  # corrupted payload: no ACK, as if never received

        fin = segment.flags & _FIN
        if fin:
            self._remote_fin_seq = segment.seq + len(data)

        advanced = False
        if data:
            advanced = self._ingest_data(segment.seq, data)

        # FIN consumes one sequence number once all data before it is in.
        if (self._remote_fin_seq is not None
                and self.rcv_nxt == self._remote_fin_seq
                and not self._remote_fin_delivered):
            self._remote_fin_delivered = True
            self.rcv_nxt += 1
            self._send_ack()
            self._on_remote_fin()
            return

        if data or fin:
            if not advanced:
                # Out-of-order or duplicate: the sender's dup-ack
                # machinery counts these.
                self.stats.dup_acks_sent += 1
            self._send_ack()

    def _ingest_data(self, seq: int, data: bytes) -> bool:
        """Insert a data segment; returns True if rcv_nxt advanced."""
        assert self.rcv_nxt is not None
        end = seq + len(data)
        if end <= self.rcv_nxt:
            return False  # entirely duplicate
        if seq > self.rcv_nxt:
            if seq - self.rcv_nxt <= self.config.rwnd:
                if seq not in self._ooo_data or len(self._ooo_data[seq]) < len(data):
                    self._ooo_data[seq] = data
                    self._ooo_ranges.add(seq, end)
                    self.stats.out_of_order_segments += 1
                    if seq in self._recent_ooo_seqs:
                        self._recent_ooo_seqs.remove(seq)
                    self._recent_ooo_seqs.insert(0, seq)
                    del self._recent_ooo_seqs[8:]
            return False
        # Overlapping or exactly in order: deliver the new part.
        self._deliver(data[self.rcv_nxt - seq:])
        if self._ooo_data:  # no out-of-order data: no ranges either
            self._drain_ooo()
            self._ooo_ranges.remove_below(self.rcv_nxt)
        return True

    def _drain_ooo(self) -> None:
        assert self.rcv_nxt is not None
        while True:
            match = None
            for seq, data in self._ooo_data.items():
                if seq <= self.rcv_nxt:
                    match = seq
                    break
            if match is None:
                return
            data = self._ooo_data.pop(match)
            if match + len(data) > self.rcv_nxt:
                self._deliver(data[self.rcv_nxt - match:])

    def _deliver(self, data: bytes) -> None:
        assert self.rcv_nxt is not None
        length = len(data)
        self.rcv_nxt += length
        self.stats.bytes_delivered += length
        if self.on_receive is not None and length:
            self.on_receive(data)

    def _on_remote_fin(self) -> None:
        if self.state is TCPState.FIN_SENT:
            self._check_send_complete()
        if self.on_remote_close is not None:
            self.on_remote_close()

    # ------------------------------------------------------------------

    def _finish(self, state: TCPState, reason: str) -> None:
        if self.state in _CLOSED_STATES:
            return
        self.state = state
        self.close_reason = reason
        self.closed_at = self.sim.now
        # A closed connection puts no retransmission on the wire.
        self._retx_timer.stop()
        if self.on_close is not None:
            self.on_close(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TCPConnection {self.local_addr}:{self.local_port}->"
                f"{self.remote_addr}:{self.remote_port} {self.state.value} "
                f"una={self.snd_una} nxt={self.snd_nxt}>")
