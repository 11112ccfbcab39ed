"""Experiment configuration.

One :class:`ExperimentConfig` fully describes a transfer run: workload,
encoding policy, link impairments, TCP tunables and seeds.  Defaults
follow the paper's testbed (§III-C): a 1 MB/s traffic-shaped link whose
loss rate is swept 0–20 %, retrieving a ~574 KB object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..net.tcp import TCPConfig

#: The LAN hops between hosts and gateways: 1 Gb/s, never the bottleneck.
LAN_BANDWIDTH = 125_000_000.0
#: One-way propagation delay of each LAN hop (s).
LAN_DELAY = 0.0005
#: Segment size of both endpoints (Ethernet MTU less 40 header bytes).
TCP_MSS = 1460
#: Receive window of both endpoints — not TCPConfig's 262,144 default.
#: 32 KB (~22 segments) keeps the in-flight window — and therefore the
#: span of packets a single loss can take down via encoding
#: dependencies (Fig. 8) — at the scale of the paper's testbed.
TCP_RWND = 32 * 1024


@dataclass
class ExperimentConfig:
    """Everything needed to run (and re-run) one transfer."""

    # -- workload
    corpus: str = "file1"
    file_size: int = 0              # 0 = corpus default
    corpus_seed: int = 3

    # -- byte caching
    policy: Optional[str] = "cache_flush"   # None disables DRE entirely
    policy_kwargs: Dict[str, Any] = field(default_factory=dict)
    cache_bytes: int = 16 * 1024 * 1024
    cache_max_packets: Optional[int] = None
    cache_eviction: str = "fifo"            # "fifo" (paper) | "lru"
    #: > 0 selects the sharded shared cache (repro.core.shardcache):
    #: N fingerprint-routed shards with per-shard byte budgets, the
    #: serving mode's population cache.  0 keeps the paper's single
    #: per-transfer ByteCache.
    cache_shards: int = 0
    #: Probabilistic admission (sharded or not): fraction of payloads
    #: admitted, decided by a content-keyed coin so the encoder and
    #: decoder always agree.  1.0 = admit everything.
    cache_admission: float = 1.0

    # -- gateway resilience layer (epochs / resync / heartbeats; see
    #    repro.gateway.resilience).  Off by default: the paper's runs
    #    model cooperative gateways that never crash.
    resilience: bool = False
    resilience_kwargs: Dict[str, Any] = field(default_factory=dict)

    # -- the constrained (wireless) segment, Fig. 3
    bandwidth: float = 1_000_000.0          # 1 MB/s traffic shaper
    bottleneck_delay: float = 0.0025        # one-way propagation (s)
    loss_rate: float = 0.0                  # swept 0–20 % in the paper
    corrupt_rate: float = 0.0
    reorder_rate: float = 0.0

    # -- TCP endpoint tunables
    tcp_min_rto: float = 0.2
    tcp_max_rto: float = 8.0
    # Linux's tcp_retries2-style give-up threshold.  High enough that
    # the bounded undecodable chains of k-distance (at most k failed
    # attempts per chain, §V-C) ride out; only a genuine livelock (the
    # naive policy's circular dependency) exhausts it.
    tcp_max_retries: int = 20
    tcp_congestion: str = "reno"          # "reno" | "cubic" (Linux-2012 era)

    # -- run control
    seed: int = 0
    time_limit: float = 600.0
    verify_content: bool = False
    #: Collect per-stage hot-path timings (repro.metrics.profiling)
    #: into TransferResult.profile.  Near-zero cost when False.
    profile: bool = False
    #: Record time-resolved run telemetry (repro.metrics.telemetry):
    #: cwnd/RTO/in-flight, cache occupancy, link queues, perceived loss
    #: sampled on a sim-time tick, plus a flight recorder dumped on
    #: stall/watchdog/time-limit.  The telemetry/v1 export lands in
    #: TransferResult.telemetry.  When False every instrumented layer
    #: pays exactly one None-check (the e2e py_calls_per_op budget).
    telemetry: bool = False
    #: TelemetryConfig field overrides (per_connection).
    telemetry_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Record causal span traces (repro.metrics.spans): one trace per
    #: sampled data packet, spans across encode -> link transit ->
    #: decode with cross-trace encoded_against/retransmit links, plus
    #: control-plane traces for resyncs and watchdog trips.  The
    #: spans/v1 export lands in TransferResult.spans.  When False every
    #: hook site pays exactly one None-check (the e2e py_calls_per_op
    #: budget).
    spans: bool = False
    #: SpanRecorder overrides (trace_sample=1/N flows, max_spans).
    spans_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Arm the verification oracles (repro.verify.oracles): end-to-end
    #: byte integrity, quiescent-point cache coherence, the sharded
    #: cache's own invariants, and the policy's declared safety
    #: properties, each raising a structured
    #: InvariantViolation (with flight-recorder dump) the moment it is
    #: broken.  When False every hook site pays exactly one None-check
    #: (the e2e py_calls_per_op budget, like profile/telemetry).
    verify: bool = False

    def tcp_config(self) -> TCPConfig:
        return TCPConfig(mss=TCP_MSS, rwnd=TCP_RWND,
                         min_rto=self.tcp_min_rto, max_rto=self.tcp_max_rto,
                         max_retries=self.tcp_max_retries,
                         congestion=self.tcp_congestion)

    def with_updates(self, **kwargs) -> "ExperimentConfig":
        """Copy with fields replaced (sweeps use this heavily)."""
        from dataclasses import replace

        return replace(self, **kwargs)

    @property
    def dre_enabled(self) -> bool:
        return self.policy is not None
