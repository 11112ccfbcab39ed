"""Closed-form download time of a plain (no-DRE) TCP transfer.

The analytic anchor for the substrate every ratio in Figs. 10-13 is
divided by.  The plain-TCP half of "Modeling Network Coded TCP
Throughput: A Simple Model and its Validation" (Kim, Médard, Barros;
PAPERS.md) is the loss-limited rate ``(MSS/RTT)·√(3/2p)``; on the Fig. 3
testbed that rate is capped by the traffic shaper, which also carries
the headers and the ``p`` share of segments that are lost and resent.
Each retransmission timeout then adds one ``tcp_min_rto`` of silence.
Feeding the model a run's own timeout count separates "the stack moves
bytes at the modelled rate" from "the stack waits on its timer".
"""

from __future__ import annotations

from math import inf, sqrt

from ..experiments.config import LAN_DELAY, TCP_MSS, ExperimentConfig
from ..net.packet import IP_HEADER_SIZE, TCP_HEADER_SIZE

_HEADERS = IP_HEADER_SIZE + TCP_HEADER_SIZE


def loss_limited_rate(mss: int, rtt: float, p: float) -> float:
    """Bytes per second a loss-limited Reno flow sustains."""
    return inf if p <= 0 else (mss / rtt) * sqrt(3 / (2 * p))


def round_trip_s(config: ExperimentConfig) -> float:
    """Propagation both ways plus one full segment through the shaper."""
    propagation = 2 * (config.bottleneck_delay + 2 * LAN_DELAY)
    return propagation + (TCP_MSS + _HEADERS) / config.bandwidth


def expected_download_s(config: ExperimentConfig, size: int,
                        timeouts: float = 0.0) -> float:
    """Seconds to fetch ``size`` bytes with DRE off, ``timeouts`` RTOs."""
    rtt = round_trip_s(config)
    mss = TCP_MSS
    shaper_goodput = (config.bandwidth * (1 - config.loss_rate)
                      * mss / (mss + _HEADERS))
    rate = min(shaper_goodput, loss_limited_rate(mss, rtt, config.loss_rate))
    handshake = 2 * rtt   # SYN / SYN-ACK, then request / first byte
    return handshake + size / rate + timeouts * config.tcp_min_rto
