"""Packet model.

Packets are Python objects rather than raw byte buffers: the simulation
only needs byte-accurate *payloads* (the region byte caching operates
on) and byte-accurate *size accounting* for everything else.  Header
fields that the gateways and endpoints inspect (addresses, protocol,
TCP sequence numbers) are attributes; their on-the-wire size is charged
via :attr:`IPPacket.wire_size`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

IP_HEADER_SIZE = 20
TCP_HEADER_SIZE = 20
UDP_HEADER_SIZE = 8

PROTO_TCP = 6
PROTO_UDP = 17
PROTO_DRE_CONTROL = 253  # gateway-to-gateway control channel (resilience layer)

_next_packet_id = itertools.count(1).__next__


class TCPSegment:
    """A TCP segment.

    ``data`` always holds the bytes currently on the wire: the original
    application bytes before the encoder gateway, the DRE-encoded bytes
    between the gateways, and the reconstructed bytes after the decoder.
    ``checksum`` is the end-to-end checksum computed by the sender over
    the *original* payload; the receiving endpoint verifies it after any
    DRE reconstruction, which is how mis-reconstructed payloads get
    dropped (mirroring the role of the real TCP checksum).

    Slotted: ``dre_wire_tag`` and ``dre_epoch`` are what the encoder
    gateway puts in the shim besides the regions (a policy's wire tag
    and, with resilience armed, the cache epoch).
    """

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window",
                 "data", "checksum", "options_size", "dre_encoded",
                 "sack_blocks", "dre_wire_tag", "dre_epoch")

    def __init__(self, src_port: int, dst_port: int, seq: int, ack: int,
                 flags: int, window: int, data: bytes = b"",
                 checksum: int = 0, options_size: int = 0,
                 dre_encoded: bool = False, sack_blocks: tuple = ()) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.data = data
        self.checksum = checksum
        self.options_size = options_size
        self.dre_encoded = dre_encoded
        self.sack_blocks = sack_blocks
        self.dre_wire_tag: object = None
        self.dre_epoch: Optional[int] = None

    # flag bits
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10

    @property
    def fin(self) -> bool:
        return bool(self.flags & self.FIN)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & self.ACK)

    @property
    def header_size(self) -> int:
        return TCP_HEADER_SIZE + self.options_size

    @property
    def size(self) -> int:
        return TCP_HEADER_SIZE + self.options_size + len(self.data)

    def flag_names(self) -> str:
        names = []
        for bit, name in ((self.SYN, "SYN"), (self.ACK, "ACK"), (self.FIN, "FIN"),
                          (self.RST, "RST"), (self.PSH, "PSH")):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "-"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TCP {self.src_port}->{self.dst_port} {self.flag_names()} "
                f"seq={self.seq} ack={self.ack} len={len(self.data)}>")


@dataclass
class UDPDatagram:
    """A UDP datagram (used by the UDP streaming example / k-distance)."""

    src_port: int
    dst_port: int
    data: bytes = b""
    checksum: int = 0
    dre_encoded: bool = False

    @property
    def header_size(self) -> int:
        return UDP_HEADER_SIZE

    @property
    def size(self) -> int:
        return UDP_HEADER_SIZE + len(self.data)


@dataclass
class ControlMessage:
    """Gateway-to-gateway control payload (proto 253).

    Carries the resilience layer's heartbeats and resync handshake
    (:mod:`repro.gateway.resilience`).  ``kind`` is a short string tag;
    ``payload`` is a scalar or a tuple of scalars.
    """

    kind: str
    payload: object

    @property
    def header_size(self) -> int:
        return 4

    @property
    def size(self) -> int:
        # Approximate a compact binary encoding: 4-byte header plus
        # 8 bytes per scalar.
        items = self.payload if isinstance(self.payload, (list, tuple)) else [self.payload]
        return self.header_size + 8 * len(items)


class IPPacket:
    """An IP packet wrapping one of the transport payloads above.

    ``wire_size`` -- the bytes the packet occupies on a link, IP header
    plus payload -- is read from the payload once, here, and stored:
    every link crossing and gateway byte counter reads the slot.  Code
    that rewrites the payload in place (the gateways' encode and
    decode, corruption) calls :meth:`reread_size` afterwards.
    """

    __slots__ = ("src", "dst", "proto", "payload", "ttl", "packet_id",
                 "header_corrupt", "created_at", "wire_size")

    def __init__(self, src: str, dst: str, proto: int, payload: object,
                 ttl: int = 64, packet_id: Optional[int] = None,
                 header_corrupt: bool = False,
                 created_at: float = 0.0) -> None:
        self.src = src
        self.dst = dst
        self.proto = proto
        self.payload = payload
        self.ttl = ttl
        self.packet_id = (_next_packet_id() if packet_id is None
                          else packet_id)
        self.header_corrupt = header_corrupt
        self.created_at = created_at
        self.wire_size: int = IP_HEADER_SIZE + payload.size  # type: ignore[attr-defined]

    def reread_size(self) -> None:
        """Re-read ``wire_size`` after the payload was rewritten in place."""
        self.wire_size = IP_HEADER_SIZE + self.payload.size  # type: ignore[attr-defined]

    @property
    def tcp(self) -> Optional[TCPSegment]:
        if self.proto == PROTO_TCP:
            return self.payload  # type: ignore[return-value]
        return None

    @property
    def udp(self) -> Optional[UDPDatagram]:
        if self.proto == PROTO_UDP:
            return self.payload  # type: ignore[return-value]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<IP #{self.packet_id} {self.src}->{self.dst} proto={self.proto} "
                f"{self.wire_size}B>")
