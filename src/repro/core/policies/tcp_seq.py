"""TCP Sequence Number encoding (§V-B, Fig. 7).

The cache stores the TCP sequence number of the segment each
fingerprint came from (Fig. 7 line C.6), and a repeated region is only
eliminated when it is present in a *strictly preceding* segment of the
same flow (line B.7: ``TCPseq_new > TCPseq_stored``).  A retransmitted
segment may therefore still be encoded — but only against earlier
data — which breaks the circular dependencies without flushing.

Sequence numbers in the simulator are absolute byte offsets and never
wrap, so plain integer comparison implements line B.7 faithfully.

Line B.7 orders segments of one connection only; across connections
sequence numbers are incomparable, and the paper's §IV-C warning that
"all subsequent connections … may get affected" survives it.  A first
transmission may still source another flow (the inter-flow redundancy
§I sells), but a retransmission — a segment whose ``tcp_seq`` is not
above the highest already sent on its flow — takes no cross-flow
region.  The lowest missing segment of any flow is thereby resent
against its own flow's strictly earlier segments only — all of which
have already crossed the decoder — and decodes (DESIGN.md §6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from .base import EncoderPolicy, PacketMeta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import ByteCache
    from ..ringtable import RingEntry


class TcpSeqPolicy(EncoderPolicy):
    """Encode only against strictly earlier TCP segments."""

    name = "tcp_seq"
    verify_oracles = ("circular_dependency", "tcp_seq")

    def __init__(self) -> None:
        super().__init__()
        self._high_seq: Dict[tuple, int] = {}
        self._resending = False

    def before_packet(self, meta: PacketMeta, cache: "ByteCache") -> None:
        seq = meta.tcp_seq
        if seq is None:
            return
        high = self._high_seq.get(meta.flow)
        # Equality counts: a repeat of the flow's last segment is a
        # retransmission too.
        self._resending = high is not None and seq <= high
        if not self._resending:
            self._high_seq[meta.flow] = seq

    def entry_eligible(self, entry: "RingEntry",
                       meta: PacketMeta) -> bool:
        if meta.tcp_seq is None:
            # Non-TCP traffic carries no ordering information; the
            # paper's Fig. 7 guard cannot be evaluated, so do not encode.
            return False
        if entry.flow != meta.flow:
            return not self._resending
        if entry.tcp_seq is None:
            return False
        return entry.tcp_seq < meta.tcp_seq
