"""Transparent TCP-level byte caching gateways (§II-A).

Commercial byte-caching appliances operate at the transport layer in a
*transparent* split-connection mode (Fig. 1): the client-side gateway
G1 intercepts the client's SYN and completes the handshake itself while
the server-side gateway G2 opens its own connection to the server, both
spoofing the end hosts' addresses so neither endpoint knows the
gateways exist.  The payload travels between G1 and G2 on a third,
gateway-to-gateway TCP connection where redundancy elimination happens
on *reliable, ordered* stream records — which is why packet loss never
desynchronises the caches in this mode.

The §II-A weakness this module lets experiments reproduce: the three
TCP connections have unrelated sequence spaces, so when the client
moves to a path that bypasses G1, its ACKs reach the real server inside
a connection whose numbers they do not match, and the transfer stalls.
The IP-level gateways (:mod:`.middlebox`) survive the same handoff.

Record protocol on the relay connection (one per direction-pair)::

    frame := kind(1) conn_id(2) length(4) payload(length)
    kind  := OPEN(1) | DATA_C2S(2) | DATA_S2C(3) | CLOSE(4)

DATA_S2C payloads are DRE-encoded with the standard policy-driven
encoder; the record's stream offset plays the role of the TCP sequence
number for the policies.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional

from ..core.cache import ByteCache
from ..core.checksum import payload_checksum
from ..core.decoder import ByteCachingDecoder
from ..core.encoder import ByteCachingEncoder
from ..core.fingerprint import FingerprintScheme
from ..core.policies import make_policy_pair
from ..core.policies.base import PacketMeta
from ..net.packet import IPPacket, PROTO_TCP
from ..net.tcp import TCPConfig, TCPConnection, TCPStack
from ..sim.engine import Simulator
from ..sim.node import Host, Node

FRAME_HEADER = struct.Struct(">BHI")
KIND_OPEN = 1
KIND_DATA_C2S = 2
KIND_DATA_S2C = 3
KIND_CLOSE = 4
RECORD_SIZE = 1460


class _SpoofHost(Host):
    """A host that owns somebody else's IP address (transparent mode)."""


class _FrameReader:
    """Incremental parser for the relay record protocol."""

    def __init__(self, on_frame: Callable[[int, int, bytes], None]):
        self._buffer = bytearray()
        self._on_frame = on_frame

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)
        while len(self._buffer) >= FRAME_HEADER.size:
            kind, conn_id, length = FRAME_HEADER.unpack_from(self._buffer, 0)
            end = FRAME_HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[FRAME_HEADER.size: end])
            del self._buffer[:end]
            self._on_frame(kind, conn_id, payload)


def _frame(kind: int, conn_id: int, payload: bytes = b"") -> bytes:
    return FRAME_HEADER.pack(kind, conn_id, len(payload)) + payload


class _StreamCodec:
    """Record-level DRE for the relay stream (reliable substrate)."""

    def __init__(self, policy_name: str, scheme: FingerprintScheme,
                 cache_bytes: int):
        encoder_policy, decoder_policy = make_policy_pair(policy_name)
        self.encoder = ByteCachingEncoder(scheme, ByteCache(cache_bytes),
                                          encoder_policy)
        self.decoder = ByteCachingDecoder(scheme, ByteCache(cache_bytes),
                                          decoder_policy)
        self._encode_offset = 0
        self._decode_offset = 0
        self._record_counter = 0

    def encode_record(self, conn_id: int, data: bytes) -> bytes:
        meta = PacketMeta(packet_id=self._record_counter,
                          flow=("relay", conn_id),
                          tcp_seq=self._encode_offset,
                          counter=self._record_counter)
        self._record_counter += 1
        self._encode_offset += len(data)
        result = self.encoder.encode(data, meta)
        checksum = payload_checksum(data)
        return struct.pack(">I", checksum) + result.data

    def decode_record(self, conn_id: int, blob: bytes) -> Optional[bytes]:
        checksum = struct.unpack_from(">I", blob, 0)[0]
        meta = PacketMeta(packet_id=self._record_counter,
                          flow=("relay", conn_id),
                          tcp_seq=self._decode_offset,
                          counter=self._record_counter)
        self._record_counter += 1
        result = self.decoder.decode(blob[4:], meta, checksum=checksum)
        if not result.ok:
            return None
        self._decode_offset += len(result.payload)
        return result.payload


class TcpProxyGateway(Node):
    """One side of the transparent split-TCP byte-caching pair.

    ``role`` is "client-side" (G1: intercepts the client's connections,
    spoofing the server) or "server-side" (G2: originates connections
    to the real server, spoofing the client).
    """

    def __init__(self, sim: Simulator, name: str, role: str, address: str,
                 client_addr: str, server_addr: str, server_port: int = 80,
                 policy: str = "tcp_seq",
                 scheme: Optional[FingerprintScheme] = None,
                 cache_bytes: int = 16 * 1024 * 1024,
                 tcp_config: Optional[TCPConfig] = None):
        super().__init__(sim, name)
        if role not in ("client-side", "server-side"):
            raise ValueError(f"bad role: {role}")
        self.role = role
        self.address = address
        self.client_addr = client_addr
        self.server_addr = server_addr
        self.server_port = server_port
        self.peer_address: Optional[str] = None
        self._tcp_config = tcp_config if tcp_config is not None else TCPConfig()

        spoofed = server_addr if role == "client-side" else client_addr
        self._spoof_host = _SpoofHost(sim, f"{name}-spoof", spoofed)
        self._spoof_stack = TCPStack(sim, self._spoof_host, self._tcp_config)
        self._relay_host = Host(sim, f"{name}-relay", address)
        self._relay_stack = TCPStack(sim, self._relay_host, self._tcp_config)

        self.codec = _StreamCodec(
            policy, scheme if scheme is not None else FingerprintScheme(),
            cache_bytes)
        self._relay_conn: Optional[TCPConnection] = None
        self._reader = _FrameReader(self._on_frame)
        self._conns: Dict[int, TCPConnection] = {}
        self._next_conn_id = 1
        self.records_relayed = 0
        self.relay_bytes = 0
        self.undecodable_records = 0

        if role == "client-side":
            self._spoof_stack.listen(server_port, self._accept_client)
        else:
            self._relay_stack.listen(9000, self._accept_relay)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach_routes(self, toward_client, toward_server,
                      peer_address: Optional[str] = None,
                      peer_side: str = "server") -> None:
        """Set the two outgoing links and mirror them into the inner
        hosts' route tables.  ``peer_side`` says which way the other
        gateway lies (the relay traffic must route towards it)."""
        peer_link = toward_server if peer_side == "server" else toward_client
        for node in (self._spoof_host, self._relay_host, self):
            if toward_client is not None:
                node.add_route(self.client_addr, toward_client)
            if toward_server is not None:
                node.set_default_route(toward_server)
            if peer_address is not None and peer_link is not None:
                node.add_route(peer_address, peer_link)

    def connect_relay(self, peer_address: str) -> None:
        """Client-side gateway dials the server-side relay listener."""
        self.peer_address = peer_address
        self._relay_conn = self._relay_stack.connect(peer_address, 9000)
        self._relay_conn.on_receive = self._reader.feed

    def _accept_relay(self, conn: TCPConnection) -> None:
        self._relay_conn = conn
        conn.on_receive = self._reader.feed

    # ------------------------------------------------------------------
    # packet interception
    # ------------------------------------------------------------------

    def handle(self, pkt: IPPacket) -> None:
        if pkt.proto == PROTO_TCP:
            if pkt.dst == self._spoof_host.address:
                segment = pkt.tcp
                intercept = (segment.dst_port == self.server_port
                             if self.role == "client-side"
                             else True)
                if intercept:
                    self._spoof_host.receive(pkt)
                    return
            if pkt.dst == self.address:
                self._relay_host.receive(pkt)
                return
        self.forward(pkt)

    # ------------------------------------------------------------------
    # client-side (G1) logic
    # ------------------------------------------------------------------

    def _accept_client(self, conn: TCPConnection) -> None:
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        self._conns[conn_id] = conn
        # Ship the client's source port too: G2 spoofs it so the real
        # server believes it talks to the client directly (full
        # transparency — and the precise §II-A t5 failure mode).
        self._send_frame(KIND_OPEN, conn_id,
                         struct.pack(">HH", self.server_port,
                                     conn.remote_port))
        conn.on_receive = lambda data: self._send_frame(
            KIND_DATA_C2S, conn_id, data)

    # ------------------------------------------------------------------
    # server-side (G2) logic
    # ------------------------------------------------------------------

    def _open_upstream(self, conn_id: int, port: int,
                       client_port: Optional[int] = None) -> None:
        conn = self._spoof_stack.connect(self.server_addr, port,
                                         local_port=client_port)
        self._conns[conn_id] = conn

        def on_receive(data: bytes) -> None:
            for index in range(0, len(data), RECORD_SIZE):
                record = data[index: index + RECORD_SIZE]
                encoded = self.codec.encode_record(conn_id, record)
                self._send_frame(KIND_DATA_S2C, conn_id, encoded)

        conn.on_receive = on_receive
        conn.on_remote_close = lambda: self._send_frame(KIND_CLOSE, conn_id)

    # ------------------------------------------------------------------
    # relay plumbing
    # ------------------------------------------------------------------

    def _send_frame(self, kind: int, conn_id: int, payload: bytes = b"") -> None:
        if self._relay_conn is None or not self._relay_conn.is_open:
            return
        frame = _frame(kind, conn_id, payload)
        self.records_relayed += 1
        self.relay_bytes += len(frame)
        self._relay_conn.send(frame)

    def _on_frame(self, kind: int, conn_id: int, payload: bytes) -> None:
        if kind == KIND_OPEN and self.role == "server-side":
            port, client_port = struct.unpack(">HH", payload)
            self._open_upstream(conn_id, port, client_port)
            return
        conn = self._conns.get(conn_id)
        if conn is None:
            return
        if kind == KIND_DATA_C2S and self.role == "server-side":
            if conn.is_open:
                conn.send(payload)
        elif kind == KIND_DATA_S2C and self.role == "client-side":
            decoded = self.codec.decode_record(conn_id, payload)
            if decoded is None:
                # Impossible over the reliable relay unless caches were
                # misconfigured; counted for visibility.
                self.undecodable_records += 1
                return
            if conn.is_open:
                conn.send(decoded)
        elif kind == KIND_CLOSE and self.role == "client-side":
            conn.close()


def create_proxy_pair(sim: Simulator, client_addr: str, server_addr: str,
                      policy: str = "tcp_seq",
                      g1_address: str = "10.255.1.1",
                      g2_address: str = "10.255.1.2",
                      tcp_config: Optional[TCPConfig] = None):
    """Build the G1 (client-side) / G2 (server-side) proxy pair."""
    scheme = FingerprintScheme()
    g1 = TcpProxyGateway(sim, "proxy-g1", "client-side", g1_address,
                         client_addr, server_addr, policy=policy,
                         scheme=scheme, tcp_config=tcp_config)
    g2 = TcpProxyGateway(sim, "proxy-g2", "server-side", g2_address,
                         client_addr, server_addr, policy=policy,
                         scheme=scheme, tcp_config=tcp_config)
    return g1, g2
