"""Minimal UDP layer.

Used by the UDP streaming example: §V-C notes that k-distance encoding
"is applicable to not only TCP but also UDP traffic", so the repo ships
a datagram path to demonstrate it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from ..core.checksum import payload_checksum, verify_payload
from ..sim.engine import Simulator
from ..sim.node import Host
from .packet import IPPacket, PROTO_UDP, UDPDatagram


class UDPStack:
    """Per-host UDP sockets."""

    def __init__(self, sim: Simulator, host: Host):
        self.sim = sim
        self.host = host
        self._sockets: Dict[int, "UDPSocket"] = {}
        self._ephemeral = itertools.count(40000)
        host.register_protocol(PROTO_UDP, self._on_packet)

    def socket(self, port: Optional[int] = None) -> "UDPSocket":
        if port is None:
            port = next(self._ephemeral)
        if port in self._sockets:
            raise ValueError(f"UDP port {port} already bound")
        sock = UDPSocket(self, port)
        self._sockets[port] = sock
        return sock

    def _on_packet(self, pkt: IPPacket) -> None:
        datagram = pkt.udp
        if datagram is None:
            return
        sock = self._sockets.get(datagram.dst_port)
        if sock is None:
            return
        sock._deliver(pkt.src, datagram)

    def _send(self, sock: "UDPSocket", dst: str, dst_port: int,
              data: bytes) -> None:
        datagram = UDPDatagram(src_port=sock.port, dst_port=dst_port,
                               data=data, checksum=payload_checksum(data))
        self.host.send(IPPacket(src=self.host.address, dst=dst,
                                proto=PROTO_UDP, payload=datagram))


class UDPSocket:
    """A bound UDP port with a receive callback."""

    def __init__(self, stack: UDPStack, port: int):
        self.stack = stack
        self.port = port
        self.on_receive: Optional[Callable[[str, int, bytes], None]] = None
        self.datagrams_received = 0
        self.checksum_drops = 0

    def sendto(self, data: bytes, dst: str, dst_port: int) -> None:
        self.stack._send(self, dst, dst_port, data)

    def _deliver(self, src: str, datagram: UDPDatagram) -> None:
        if not verify_payload(datagram.data, datagram.checksum):
            self.checksum_drops += 1
            return
        self.datagrams_received += 1
        if self.on_receive is not None:
            self.on_receive(src, datagram.src_port, datagram.data)
