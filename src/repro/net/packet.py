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
from dataclasses import dataclass, field
from typing import Optional

IP_HEADER_SIZE = 20
TCP_HEADER_SIZE = 20
UDP_HEADER_SIZE = 8

PROTO_TCP = 6
PROTO_UDP = 17
PROTO_DRE_CONTROL = 253  # gateway-to-gateway control channel (informed marking / NACK)

_packet_ids = itertools.count(1)


@dataclass
class TCPSegment:
    """A TCP segment.

    ``data`` always holds the bytes currently on the wire: the original
    application bytes before the encoder gateway, the DRE-encoded bytes
    between the gateways, and the reconstructed bytes after the decoder.
    ``checksum`` is the end-to-end checksum computed by the sender over
    the *original* payload; the receiving endpoint verifies it after any
    DRE reconstruction, which is how mis-reconstructed payloads get
    dropped (mirroring the role of the real TCP checksum).
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    data: bytes = b""
    checksum: int = 0
    options_size: int = 0
    dre_encoded: bool = False
    sack_blocks: tuple = ()

    # flag bits
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10

    @property
    def syn(self) -> bool:
        return bool(self.flags & self.SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & self.FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & self.RST)

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

    Used by the informed-marking and NACK-recovery extension policies.
    ``kind`` is a short string tag; ``payload`` is policy-defined.
    """

    kind: str
    payload: object

    @property
    def header_size(self) -> int:
        return 4

    @property
    def size(self) -> int:
        # Approximate a compact binary encoding: 4-byte header plus
        # 8 bytes per fingerprint / id, plus any raw payload bytes the
        # message carries (NACK repairs ship whole packet payloads).
        items = self.payload if isinstance(self.payload, (list, tuple)) else [self.payload]
        total = self.header_size
        for item in items:
            total += 8
            if isinstance(item, (tuple, list)):
                for part in item:
                    if isinstance(part, (bytes, bytearray)):
                        total += len(part)
        return total


@dataclass
class IPPacket:
    """An IP packet wrapping one of the transport payloads above."""

    src: str
    dst: str
    proto: int
    payload: object
    ttl: int = 64
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    header_corrupt: bool = False
    created_at: float = 0.0

    @property
    def wire_size(self) -> int:
        """Bytes this packet occupies on a link (IP header + payload)."""
        return IP_HEADER_SIZE + self.payload.size

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
