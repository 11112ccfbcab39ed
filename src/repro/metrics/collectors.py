"""Run-level metrics: everything the paper's figures are computed from.

A :class:`TransferResult` snapshots one end-to-end retrieval —
client-side outcome, bottleneck-link accounting, gateway accounting —
and derives the paper's three headline metrics:

* bytes sent on the constrained link (Fig. 10 numerator);
* download time (Fig. 11 numerator);
* perceived packet loss rate (Fig. 13): channel losses *plus* packets
  the decoder had to drop as undecodable, over packets offered.

When the resilience layer is armed the result additionally snapshots
both gateways' :class:`~repro.gateway.resilience.ResilienceStats`
(time-to-resync, degraded-mode packets, watchdog trips, heartbeat
state) — see :meth:`TransferResult.recovery_summary`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

from ..app.transfer import TransferOutcome
from ..gateway.middlebox import GatewayStats
from ..gateway.resilience import ResilienceStats
from ..sim.link import LinkStats


@dataclass
class TransferResult:
    """Everything measured from a single transfer run."""

    outcome: TransferOutcome
    bottleneck_forward: LinkStats
    bottleneck_reverse: LinkStats
    encoder_stats: Optional[GatewayStats] = None
    decoder_stats: Optional[GatewayStats] = None
    encoder_resilience: Optional[ResilienceStats] = None
    decoder_resilience: Optional[ResilienceStats] = None
    sim_time: float = 0.0
    dre_enabled: bool = False
    policy: str = "none"
    seed: int = 0
    server_retransmissions: int = 0
    server_timeouts: int = 0
    #: Why ``server_timeouts`` fired (TCPStats' RTO ledger; handshake
    #: timeouts are in the total only) and how many lost retransmissions
    #: SACK caught before the timer had to.
    server_timeouts_lost_retransmit: int = 0
    server_timeouts_no_feedback: int = 0
    server_timeouts_below_dupthresh: int = 0
    server_lost_retransmits: int = 0
    avg_data_packet_size: float = 0.0
    data_packets_sent: int = 0
    #: Stage timing breakdown (see repro.metrics.profiling) plus, under
    #: ``"anchor_memo"``, the run's anchor-memo hits / misses /
    #: evictions and the bytes held at its end; populated when the run
    #: was configured with ``profile=True``.
    profile: Optional[Dict[str, Dict[str, float]]] = None
    #: telemetry/v1 export (see repro.metrics.telemetry), populated when
    #: the run was configured with ``telemetry=True``.
    telemetry: Optional[Dict[str, Any]] = None
    #: spans/v1 causal-trace export (see repro.metrics.spans), populated
    #: when the run was configured with ``spans=True``.
    spans: Optional[Dict[str, Any]] = None

    # -- headline metrics --------------------------------------------------

    @property
    def completed(self) -> bool:
        return self.outcome.completed

    @property
    def stalled(self) -> bool:
        return self.outcome.stalled or not self.outcome.completed

    @property
    def fraction_retrieved(self) -> float:
        return self.outcome.fraction_retrieved

    @property
    def bytes_on_link(self) -> int:
        """Bytes offered to the constrained link, both directions.

        Retransmissions count — that is the point: aggressive encoding
        that triggers retransmission storms shows up here.
        """
        return (self.bottleneck_forward.bytes_offered
                + self.bottleneck_reverse.bytes_offered)

    @property
    def forward_bytes_on_link(self) -> int:
        return self.bottleneck_forward.bytes_offered

    @property
    def download_time(self) -> Optional[float]:
        return self.outcome.duration

    @property
    def perceived_loss_rate(self) -> float:
        """Channel loss + undecodable drops, over data packets offered.

        For a no-DRE run this reduces to the channel loss fraction.
        """
        if self.encoder_stats is None or self.decoder_stats is None:
            return self.bottleneck_forward.loss_fraction
        offered = self.encoder_stats.data_packets
        if offered == 0:
            return 0.0
        delivered = self.decoder_stats.decoded_ok
        return max(0.0, 1.0 - delivered / offered)

    @property
    def undecodable_drops(self) -> int:
        if self.decoder_stats is None:
            return 0
        return self.decoder_stats.dropped_total

    # -- recovery metrics (resilience layer) -------------------------------

    @property
    def resyncs_completed(self) -> int:
        if self.decoder_resilience is None:
            return 0
        return self.decoder_resilience.resyncs_completed

    @property
    def time_to_resync(self) -> Optional[float]:
        """Mean seconds from divergence detection to acknowledged resync."""
        if self.decoder_resilience is None:
            return None
        return self.decoder_resilience.time_to_resync

    @property
    def degraded_packets(self) -> int:
        """Data packets the encoder forwarded unencoded while its peer
        was unresponsive (zero compression instead of a stall)."""
        if self.encoder_resilience is None:
            return 0
        return self.encoder_resilience.degraded_packets

    @property
    def watchdog_trips(self) -> int:
        if self.decoder_resilience is None:
            return 0
        return self.decoder_resilience.watchdog_trips

    def recovery_summary(self) -> Optional[dict]:
        """Recovery metrics as one flat dict (None when the layer is off).

        Rendered by :func:`repro.metrics.report.format_recovery`.
        """
        if self.encoder_resilience is None and self.decoder_resilience is None:
            return None
        enc = self.encoder_resilience or ResilienceStats()
        dec = self.decoder_resilience or ResilienceStats()
        return {
            # nan on a zero-packet link (a partition that never lifted);
            # format_recovery renders it as an em-dash.
            "link_loss": self.bottleneck_forward.loss_fraction,
            "resyncs_completed": dec.resyncs_completed,
            "resyncs_initiated": dec.resyncs_initiated,
            "resync_retries": dec.resync_retries,
            "time_to_resync": dec.time_to_resync,
            "watchdog_trips": dec.watchdog_trips,
            "epoch_mismatch_dropped": dec.epoch_mismatch_dropped,
            "desync_dropped": dec.desync_dropped,
            "degraded_packets": enc.degraded_packets,
            "degraded_time": enc.degraded_time,
            "heartbeat_state": "degraded" if enc.degraded else "ok",
            "heartbeats_sent": enc.heartbeats_sent,
        }

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Every field as plain JSON-friendly data (nested ``asdict``).

        The differential runner compares serial and parallel sweeps
        cell by cell through this form.
        """
        return asdict(self)


@dataclass
class RatioPoint:
    """Paired DRE / no-DRE measurement at one sweep coordinate.

    The paper's Figs. 10–12 plot exactly these ratios:
    ``value_with_DRE / value_without_DRE``.
    """

    x: float
    bytes_ratio: float
    delay_ratio: Optional[float]
    dre: TransferResult = field(repr=False, default=None)  # type: ignore[assignment]
    baseline: TransferResult = field(repr=False, default=None)  # type: ignore[assignment]

    @classmethod
    def from_results(cls, x: float, dre: TransferResult,
                     baseline: TransferResult) -> "RatioPoint":
        bytes_ratio = (dre.forward_bytes_on_link
                       / max(1, baseline.forward_bytes_on_link))
        if dre.download_time is not None and baseline.download_time:
            delay_ratio: Optional[float] = (dre.download_time
                                            / baseline.download_time)
        else:
            delay_ratio = None
        return cls(x=x, bytes_ratio=bytes_ratio, delay_ratio=delay_ratio,
                   dre=dre, baseline=baseline)
