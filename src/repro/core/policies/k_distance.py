"""k-distance encoding (§V-C, Fig. 9).

Inspired by MPEG's I-frames: every k-th packet is a *reference*, sent
unencoded; "the subsequent k−1 packets can be encoded using the
immediately preceding reference, and any of the previous packets until
that reference", so a single loss invalidates at most the rest of one
k-packet group.

For TCP traffic the packet positions are *stream* positions: the byte
stream is divided into groups of k segments (k·MSS bytes), the first
segment of each group is the reference, and a segment may only be
encoded against strictly earlier segments of its own group.  Two
properties of §VII pin this reading down: as k grows "the behavior of
the k-distance algorithm must match that of the TCP sequence number
algorithm" (strictly-earlier-segment eligibility with the group window
removed is exactly §V-B), and a retransmission can never be encoded
against a succeeding copy of itself, which is what keeps the scheme
correct under loss.

For non-TCP traffic (no sequence numbers — the UDP streaming case the
paper highlights) the positions are arrival counters: every k-th
datagram through the encoder is a reference and eligibility is
counter-windowed.  Duplicate-payload matches are refused in this mode
because, with no stream ordering available, a duplicate is
indistinguishable from a retransmitted repair whose original may be the
very loss being repaired.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .base import EncoderPolicy, PacketMeta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import ByteCache
    from ..ringtable import RingEntry

DEFAULT_MSS = 1460


class KDistancePolicy(EncoderPolicy):
    """Reference every ``k`` packets; encode only within the group."""

    name = "k_distance"
    verify_oracles = ("circular_dependency", "k_distance")

    def __init__(self, k: int = 8, mss: int = DEFAULT_MSS) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if mss < 1:
            raise ValueError("mss must be >= 1")
        super().__init__()
        self.k = k
        self.mss = mss
        #: Per-flow stream base: the sequence number of the first data
        #: byte observed (learned from the first segment of each flow).
        self._flow_base: dict = {}
        self._last_reference_counter = -1

    # -- group geometry (TCP / stream mode) --------------------------------

    def _group_bytes(self) -> int:
        return self.k * self.mss

    def _base_for(self, meta: PacketMeta) -> int:
        base = self._flow_base.get(meta.flow)
        if base is None or meta.tcp_seq < base:
            base = meta.tcp_seq
            self._flow_base[meta.flow] = base
        return base

    def group_start(self, seq: int, base: int) -> int:
        """First stream byte of the k-segment group containing ``seq``."""
        return base + ((seq - base) // self._group_bytes()) \
            * self._group_bytes()

    def is_reference(self, meta: PacketMeta) -> bool:
        if meta.tcp_seq is not None:
            base = self._base_for(meta)
            # The first segment of each group is the reference.
            return meta.tcp_seq - self.group_start(meta.tcp_seq, base) \
                < self.mss
        # Counter mode: a reference whenever k packets have passed since
        # the last one (expressed as a distance so the adaptive subclass
        # can retune k without skipping or bunching references).
        return (self._last_reference_counter < 0
                or meta.counter - self._last_reference_counter >= self.k)

    # -- policy hooks -------------------------------------------------------

    def before_packet(self, meta: PacketMeta, cache: "ByteCache") -> None:
        # Learn the stream base from every packet, as the oracle does: a
        # force_raw packet (post-resync grace) skips the other hooks.
        seq = meta.tcp_seq
        if seq is not None:
            base = self._flow_base.get(meta.flow)
            if base is None or seq < base:
                self._flow_base[meta.flow] = seq

    def may_encode(self, meta: PacketMeta) -> bool:
        if self.is_reference(meta):
            if meta.tcp_seq is None:
                self._last_reference_counter = meta.counter
            return False
        return True

    def entry_eligible(self, entry: "RingEntry",
                       meta: PacketMeta) -> bool:
        if meta.tcp_seq is not None:
            # Stream mode: sources are strictly earlier segments of the
            # same flow, no older than the group's reference.
            if entry.flow != meta.flow or entry.tcp_seq is None:
                return False
            base = self._base_for(meta)
            return (self.group_start(meta.tcp_seq, base) <= entry.tcp_seq
                    < meta.tcp_seq)
        # Counter mode (UDP): anything since the latest reference.
        return entry.packet_counter >= self._last_reference_counter

    def region_acceptable(self, length: int, payload_len: int,
                          meta: PacketMeta) -> bool:
        if meta.tcp_seq is not None:
            return True  # stream ordering already forbids self-matches
        # Counter mode: refuse whole-payload duplicates (see module doc).
        return length < payload_len


class LossRateEstimator:
    """EWMA loss-rate estimate from observed TCP retransmissions.

    An encoder-side gateway cannot see channel drops directly, but it
    does see every retransmission (a non-increasing TCP sequence
    number), which under steady state approximates the perceived loss
    rate one RTT late.  Feed :meth:`observe` with each outgoing data
    segment's ``(flow, seq)``.
    """

    def __init__(self, alpha: float = 0.05, initial: float = 0.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.estimate = initial
        self.observations = 0
        self.retransmissions = 0
        self._last_seq: Dict[tuple, int] = {}

    def observe(self, flow: tuple, seq: Optional[int]) -> bool:
        """Record one outgoing segment; returns True if it looked like
        a retransmission."""
        if seq is None or flow is None:
            return False
        self.observations += 1
        last = self._last_seq.get(flow)
        is_retransmission = last is not None and seq <= last
        if last is None or seq > last:
            self._last_seq[flow] = seq
        if is_retransmission:
            self.retransmissions += 1
        sample = 1.0 if is_retransmission else 0.0
        self.estimate += self.alpha * (sample - self.estimate)
        return is_retransmission

    def recommended_k(self, target: float = 0.5, k_min: int = 2,
                      k_max: int = 64) -> int:
        """Reference spacing k ≈ target / p̂, clamped.

        §VII shows aggressive compression backfires once k exceeds the
        mean loss-free run (1/p), hence the sub-1 target.
        """
        if self.estimate <= 0.0:
            return k_max
        return max(k_min, min(k_max, int(round(target / self.estimate))))


class AdaptiveKDistancePolicy(KDistancePolicy):
    """Tune-able k-distance (§IX future work).

    The conclusion calls for "a tune-able byte caching scheme that can
    dynamically adapt how aggressively it compresses packets based on
    the packet loss rate".  This policy keeps a
    :class:`LossRateEstimator` over the segments it sees (the same
    signal Cache Flush uses) and sets

        k  =  clamp(round(target / p_hat), k_min, k_max)

    so the reference spacing tracks the expected loss-free run length.
    §VII's analysis shows perceived loss overtakes the savings once
    k > 1/p, hence ``target`` defaults below 1.
    """

    name = "adaptive_k"

    def __init__(self, k_min: int = 2, k_max: int = 64, target: float = 0.5,
                 ewma_alpha: float = 0.05, initial_loss: float = 0.02,
                 mss: int = DEFAULT_MSS) -> None:
        super().__init__(k=k_max, mss=mss)
        self.k_min = k_min
        self.k_max = k_max
        self.target = target
        self.estimator = LossRateEstimator(ewma_alpha, initial_loss)
        self.adaptations = 0
        self._retune()

    @property
    def loss_estimate(self) -> float:
        return self.estimator.estimate

    def before_packet(self, meta: PacketMeta, cache: "ByteCache") -> None:
        super().before_packet(meta, cache)
        self.estimator.observe(meta.flow, meta.tcp_seq)
        self._retune()

    def _retune(self) -> None:
        new_k = self.estimator.recommended_k(self.target, self.k_min,
                                             self.k_max)
        if new_k != self.k:
            self.k = new_k
            self.adaptations += 1
