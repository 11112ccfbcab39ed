"""TCP Sequence Number encoding (§V-B, Fig. 7).

The cache stores the TCP sequence number of the segment each
fingerprint came from (Fig. 7 line C.6), and a repeated region is only
eliminated when it is present in a *strictly preceding* segment of the
same flow (line B.7: ``TCPseq_new > TCPseq_stored``).  A retransmitted
segment may therefore still be encoded — but only against earlier
data — which breaks the circular dependencies without flushing.

Sequence numbers in the simulator are absolute byte offsets and never
wrap, so plain integer comparison implements line B.7 faithfully.

Cross-flow encodings are permitted by default (sequence numbers from
different connections are incomparable, and inter-flow redundancy is a
selling point of byte caching, §I); ``strict_cross_flow=True`` forbids
them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import EncoderPolicy, PacketMeta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..ringtable import RingEntry


class TcpSeqPolicy(EncoderPolicy):
    """Encode only against strictly earlier TCP segments."""

    name = "tcp_seq"
    verify_oracles = ("circular_dependency", "tcp_seq")

    def __init__(self, strict_cross_flow: bool = False) -> None:
        super().__init__()
        self.strict_cross_flow = strict_cross_flow

    def entry_eligible(self, entry: "RingEntry",
                       meta: PacketMeta) -> bool:
        if meta.tcp_seq is None:
            # Non-TCP traffic carries no ordering information; the
            # paper's Fig. 7 guard cannot be evaluated, so do not encode.
            return False
        if entry.flow != meta.flow:
            return not self.strict_cross_flow
        if entry.tcp_seq is None:
            return False
        return entry.tcp_seq < meta.tcp_seq
