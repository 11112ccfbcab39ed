"""TCP congestion control: Reno (RFC 5681) and CUBIC (RFC 8312).

Slow start, congestion avoidance, fast retransmit and fast recovery.
The paper's central performance effect — correlated losses caused by
byte-caching dependencies shrinking the window and forcing exponential
backoff (§I, §VI) — is produced by exactly this state machine.  Reno is
the default; CUBIC (the Linux default in the paper's 2012 testbed era)
is available via ``TCPConfig(congestion="cubic")`` for the
congestion-control ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

#: Congestion window at the start of a connection, in segments (RFC
#: 2581's two-segment initial window, the paper's Linux-2012 default).
INITIAL_CWND_SEGMENTS = 2

#: Slow-start threshold at the start of a connection, in bytes: high
#: enough that slow start runs until the first loss (RFC 5681 §3.1).
INITIAL_SSTHRESH = 1 << 30


@dataclass
class RenoStats:
    slow_start_acks: int = 0
    ca_acks: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0


class RenoCongestionControl:
    """Byte-based Reno congestion control."""

    def __init__(self, mss: int):
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss
        self.cwnd = INITIAL_CWND_SEGMENTS * mss
        self.ssthresh = INITIAL_SSTHRESH
        self.in_fast_recovery = False
        self._recovery_point = 0
        self.stats = RenoStats()

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def window(self) -> int:
        """Current congestion window in bytes."""
        return self.cwnd

    def on_new_ack(self, acked_bytes: int, snd_una: int) -> None:
        """A cumulative ACK advanced ``snd_una`` by ``acked_bytes``."""
        if self.in_fast_recovery:
            if snd_una >= self._recovery_point:
                # Full ACK: deflate and leave fast recovery.
                self.cwnd = self.ssthresh
                self.in_fast_recovery = False
            else:
                # Partial ACK (NewReno-flavoured): stay in recovery;
                # the connection retransmits the next hole.
                self.cwnd = max(self.mss, self.cwnd - acked_bytes + self.mss)
            return
        if self.in_slow_start:
            self.stats.slow_start_acks += 1
            self.cwnd += min(acked_bytes, self.mss)
        else:
            self.stats.ca_acks += 1
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)

    def on_fast_retransmit(self, flight_size: int, snd_nxt: int) -> None:
        """Three duplicate ACKs: halve and enter fast recovery."""
        self.stats.fast_retransmits += 1
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.in_fast_recovery = True
        self._recovery_point = snd_nxt

    def on_dup_ack_in_recovery(self) -> None:
        """Window inflation for each further duplicate ACK."""
        if self.in_fast_recovery:
            self.cwnd += self.mss

    def on_timeout(self, flight_size: int) -> None:
        """Retransmission timeout: collapse to one segment."""
        self.stats.timeouts += 1
        self.ssthresh = max(flight_size // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.in_fast_recovery = False


class CubicCongestionControl(RenoCongestionControl):
    """CUBIC congestion avoidance (RFC 8312, simplified).

    After a loss event the window is reduced to ``beta``·cwnd (0.7, vs
    Reno's 0.5) and congestion avoidance follows the cubic function

        W(t) = C·(t − K)³ + W_max,   K = ∛(W_max·(1−β)/C)

    anchored at the pre-loss window ``W_max``: concave recovery back to
    W_max, plateau, then convex probing.  The TCP-friendly region (grow
    at least as fast as Reno would) is honoured.  Windows are tracked in
    bytes; the cubic terms use segments, per the RFC.
    """

    C = 0.4          # scaling constant (segments/second³)
    BETA = 0.7       # multiplicative decrease factor

    def __init__(self, mss: int, clock: Optional[Callable[[], float]] = None):
        super().__init__(mss)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._w_max = 0.0          # segments
        self._epoch_start: Optional[float] = None
        self._k = 0.0
        self._reno_window = 0.0    # TCP-friendly estimate, segments
        self._acked_bytes = 0

    # -- helpers -----------------------------------------------------------

    def _segments(self, bytes_value: float) -> float:
        return bytes_value / self.mss

    def _enter_epoch(self) -> None:
        now = self._clock()
        self._epoch_start = now
        cwnd_segments = self._segments(self.cwnd)
        if cwnd_segments < self._w_max:
            self._k = ((self._w_max - cwnd_segments) / self.C) ** (1.0 / 3.0)
        else:
            self._k = 0.0
            self._w_max = cwnd_segments
        self._reno_window = cwnd_segments
        self._acked_bytes = 0

    def _cubic_window(self, t: float) -> float:
        return self.C * (t - self._k) ** 3 + self._w_max

    # -- overrides ----------------------------------------------------------

    def on_new_ack(self, acked_bytes: int, snd_una: int) -> None:
        if self.in_fast_recovery or self.in_slow_start:
            super().on_new_ack(acked_bytes, snd_una)
            return
        self.stats.ca_acks += 1
        if self._epoch_start is None:
            self._enter_epoch()
        now = self._clock()
        t = max(0.0, now - self._epoch_start)
        target = self._cubic_window(t + 0.1)   # look ~one RTT ahead
        # TCP-friendly region: emulate Reno's AIMD growth.
        self._acked_bytes += acked_bytes
        self._reno_window += (3.0 * (1 - self.BETA) / (1 + self.BETA)
                              * acked_bytes / max(1.0, self.cwnd))
        target = max(target, self._reno_window)

        cwnd_segments = self._segments(self.cwnd)
        if target > cwnd_segments:
            # Pace growth toward the target over roughly a window of ACKs.
            increment = ((target - cwnd_segments) / max(1.0, cwnd_segments)
                         * self.mss)
            self.cwnd += max(1, int(increment))
        else:
            self.cwnd += max(1, int(self.mss * self.mss
                                    / (100.0 * self.cwnd)))  # min probing

    def on_fast_retransmit(self, flight_size: int, snd_nxt: int) -> None:
        self.stats.fast_retransmits += 1
        cwnd_segments = self._segments(self.cwnd)
        self._w_max = cwnd_segments
        self.ssthresh = max(int(self.cwnd * self.BETA), 2 * self.mss)
        self.cwnd = self.ssthresh + 3 * self.mss
        self.in_fast_recovery = True
        self._recovery_point = snd_nxt
        self._epoch_start = None

    def on_timeout(self, flight_size: int) -> None:
        self.stats.timeouts += 1
        self._w_max = self._segments(self.cwnd)
        self.ssthresh = max(int(self.cwnd * self.BETA), 2 * self.mss)
        self.cwnd = self.mss
        self.in_fast_recovery = False
        self._epoch_start = None


def make_congestion_control(kind: str, mss: int,
                            clock: Optional[Callable[[], float]] = None
                            ) -> RenoCongestionControl:
    """Factory used by the connection: ``"reno"`` or ``"cubic"``."""
    if kind == "reno":
        return RenoCongestionControl(mss)
    if kind == "cubic":
        return CubicCongestionControl(mss, clock=clock)
    raise ValueError(f"unknown congestion control: {kind!r}")
