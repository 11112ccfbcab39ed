"""Policy hook interfaces for the encoder and decoder.

The paper's algorithms differ only in *when a cached packet may be
referenced* and *when the cache is updated or reset*.  Expressing them
as hooks keeps one encoder implementation (faithful to Fig. 2) and lets
the evaluation swap algorithms by swapping policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import ByteCache
    from ..ringtable import RingEntry
    from ..encoder import ByteCachingEncoder
    from ..decoder import ByteCachingDecoder


@dataclass
class PacketMeta:
    """What the gateway knows about the packet being processed.

    ``tcp_seq`` is ``None`` for non-TCP traffic (e.g. UDP streaming,
    where only sequence-agnostic policies such as k-distance apply).
    ``counter`` is a per-gateway monotone index over *data* packets,
    assigned by the gateway; sequence numbers never wrap in simulation
    so they are plain integers.
    """

    packet_id: int
    flow: Optional[tuple] = None
    tcp_seq: Optional[int] = None
    counter: int = 0


class EncoderPolicy:
    """Base (naive) encoder policy: the unmodified Fig. 2 algorithm.

    Every hook has the permissive default, so this base class *is* the
    naive Spring & Wetherall behaviour that §IV shows can livelock.
    """

    name = "naive"

    #: Safety oracles (repro.verify.oracles) armed for this policy when
    #: a run sets ``ExperimentConfig(verify=True)``.  The default is the
    #: policy-independent §IV circular-dependency property — which the
    #: naive base policy *violates* under loss; that is exactly how the
    #: verification layer pinpoints the livelock.  Subclasses add their
    #: own scheme's oracle and keep this one.
    verify_oracles: Tuple[str, ...] = ("circular_dependency",)

    def __init__(self) -> None:
        self.encoder: "Optional[ByteCachingEncoder]" = None

    def attach_encoder(self, encoder: "ByteCachingEncoder") -> None:
        self.encoder = encoder

    # -- hooks, in the order the encoder calls them ------------------------

    def before_packet(self, meta: PacketMeta, cache: "ByteCache") -> None:
        """Called before the elimination pass (Cache Flush acts here)."""

    def may_encode(self, meta: PacketMeta) -> bool:
        """False to force this packet out unencoded (k-distance refs)."""
        return True

    def entry_eligible(self, entry: "RingEntry", meta: PacketMeta) -> bool:
        """Whether a cache hit may be used as the encoding source.

        Per-record contract: the verdict may depend only on ``meta``,
        on policy state fixed before region finding (``before_packet``,
        ``may_encode``) and on the cached *packet's* record, which
        ``entry`` carries as plain attributes — ``entry.flow``,
        ``entry.tcp_seq``, ``entry.packet_counter`` (Fig. 7 line C.6),
        ``entry.store_id`` — never on the anchor (``fingerprint``,
        ``offset``).  The encoder asks once per source packet per
        encoded packet and applies the answer to every other anchor of
        that source.
        """
        return True

    def region_acceptable(self, length: int, payload_len: int,
                          meta: PacketMeta) -> bool:
        """Whether an expanded match may be emitted as an encoding field.

        Called with the final region length; policies can veto, e.g.
        k-distance refuses whole-payload matches (pure duplicates are
        retransmissions and must stay decodable, §V-C).
        """
        return True

    def should_cache_now(self, meta: PacketMeta) -> bool:
        """False to defer the cache-update pass (ACK-gated extension)."""
        return True

    def defer_cache(self, payload: bytes, anchors: List[Tuple[int, int]],
                    meta: PacketMeta) -> None:
        """Stash a deferred cache update (only called when deferred)."""

    def wire_tag(self, meta: PacketMeta) -> Optional[int]:
        """Optional small integer shipped with the encoded packet.

        The ACK-gated scheme uses it to version its references: the tag
        is the commit point (cumulative ACK) the encoder's cache state
        reflects, and the decoder replays its own deferred commits up to
        exactly that point before decoding.  Costs 4 bytes of wire
        overhead per tagged packet (charged by the gateway).
        """
        return None

    # -- asynchronous inputs ----------------------------------------------

    def on_reverse_packet(self, pkt: Any, cache: "ByteCache") -> None:
        """Observe a packet flowing in the reverse direction (ACKs)."""


class DecoderPolicy:
    """Base decoder policy: cache every decoded payload at once.

    A packet the decoder cannot rebuild is dropped whatever the policy
    — §IV-A step t3, which every scheme here assumes.  Only the
    ACK-gated mirror overrides the hooks, to defer its cache updates.
    """

    name = "drop"

    def __init__(self) -> None:
        self.decoder: "Optional[ByteCachingDecoder]" = None

    def attach_decoder(self, decoder: "ByteCachingDecoder") -> None:
        self.decoder = decoder

    def should_cache_now(self, meta: PacketMeta) -> bool:
        """False to defer caching a decoded payload (ACK-gated mirror)."""
        return True

    def defer_cache(self, payload: bytes, anchors: List[Tuple[int, int]],
                    meta: PacketMeta) -> None:
        """Stash a deferred decoder-cache update."""

    def on_wire_tag(self, tag: int, meta: PacketMeta,
                    cache: "ByteCache") -> None:
        """React to the encoder's wire tag before this packet is decoded
        (see :meth:`EncoderPolicy.wire_tag`)."""
