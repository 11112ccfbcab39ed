"""Protocol substrate: packets, checksums, TCP and UDP stacks."""

from ..core.checksum import payload_checksum, verify_payload
from .packet import (ControlMessage, IPPacket, IP_HEADER_SIZE, PROTO_DRE_CONTROL,
                     PROTO_TCP, PROTO_UDP, TCPSegment, TCP_HEADER_SIZE,
                     UDPDatagram, UDP_HEADER_SIZE)
from .tcp import TCPConfig, TCPConnection, TCPStack, TCPState, TCPStats
from .udp import UDPSocket, UDPStack

__all__ = [
    "payload_checksum",
    "verify_payload",
    "ControlMessage",
    "IPPacket",
    "IP_HEADER_SIZE",
    "PROTO_DRE_CONTROL",
    "PROTO_TCP",
    "PROTO_UDP",
    "TCPSegment",
    "TCP_HEADER_SIZE",
    "UDPDatagram",
    "UDP_HEADER_SIZE",
    "TCPConfig",
    "TCPConnection",
    "TCPStack",
    "TCPState",
    "TCPStats",
    "UDPSocket",
    "UDPStack",
]
