"""Retransmission-timeout estimation (Jacobson/Karels, RFC 6298).

SRTT and RTTVAR are updated from RTT samples of segments that were
*not* retransmitted (Karn's rule — enforced by the connection, which
simply never samples a retransmitted segment).  The paper's stall
phenomenon rides on this machinery: every failed retransmission doubles
the RTO ("the TCP time outs grow exponentially", §IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass

#: RTO before the first RTT sample (RFC 6298 §2.1).
INITIAL_RTO = 1.0

#: RFC 6298 §2.3 gains: SRTT and RTTVAR smoothing, RTTVAR multiplier.
RTO_ALPHA = 1.0 / 8.0
RTO_BETA = 1.0 / 4.0
RTO_K = 4.0


@dataclass
class RtoEstimator:
    """RFC 6298 RTO estimation with exponential backoff."""

    min_rto: float = 0.2
    max_rto: float = 60.0

    def __post_init__(self) -> None:
        self.srtt: float | None = None
        self.rttvar: float = 0.0
        self._rto: float = INITIAL_RTO
        self._backoff: int = 0
        self.samples: int = 0

    @property
    def rto(self) -> float:
        """Current RTO including any backoff, clamped to [min, max]."""
        # min(max_rto, max(min_rto, backed_off)), without the two calls:
        # the timer is re-armed on nearly every ACK.
        rto = self._rto * (1 << self._backoff)
        if not rto > self.min_rto:
            rto = self.min_rto
        return rto if rto < self.max_rto else self.max_rto

    def sample(self, rtt: float) -> None:
        """Feed one RTT measurement (seconds) from a fresh segment."""
        if rtt < 0:
            raise ValueError(f"negative RTT sample: {rtt}")
        self.samples += 1
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - RTO_BETA) * self.rttvar + RTO_BETA * abs(self.srtt - rtt)
            self.srtt = (1 - RTO_ALPHA) * self.srtt + RTO_ALPHA * rtt
        self._rto = self.srtt + RTO_K * self.rttvar
        # A valid sample means the network is delivering: reset backoff
        # (Karn's algorithm, step 3).
        self._backoff = 0

    def back_off(self) -> None:
        """Double the RTO after a retransmission timeout (capped)."""
        if self.rto < self.max_rto:
            self._backoff += 1

    def reset_backoff(self) -> None:
        self._backoff = 0
