"""TCP stack: listeners, connection table, segment demultiplexing."""

from __future__ import annotations

import itertools
import zlib
from typing import Callable, Dict, Optional, Tuple

from ...sim.engine import Simulator
from ...sim.node import Host
from ..packet import IPPacket, PROTO_TCP, TCPSegment
from .connection import TCPConfig, TCPConnection

ConnKey = Tuple[int, str, int]  # (local_port, remote_addr, remote_port)


class TCPStack:
    """Per-host TCP: owns connections and listeners, talks to IP."""

    def __init__(self, sim: Simulator, host: Host,
                 config: Optional[TCPConfig] = None):
        self.sim = sim
        self.host = host
        self.config = config if config is not None else TCPConfig()
        # Duck-typed telemetry facade (repro.metrics.telemetry), set by
        # the runner; when set, every connection registers
        # cwnd/ssthresh/RTO/in-flight pull gauges.  Reads happen on the
        # sampler tick, never in the segment path, so the only
        # stack-side cost is this None check at connection setup.
        self.telemetry = None
        # Duck-typed causal span recorder (repro.metrics.spans), set by
        # the runner and propagated to every connection the stack
        # creates.
        self.spans = None
        self._connections: Dict[ConnKey, TCPConnection] = {}
        self._listeners: Dict[int, Callable[[TCPConnection], None]] = {}
        self._ephemeral = itertools.count(49152)
        host.register_protocol(PROTO_TCP, self._on_packet)

    # ------------------------------------------------------------------

    def listen(self, port: int, on_accept: Callable[[TCPConnection], None]) -> None:
        """Accept incoming connections on ``port``."""
        if port in self._listeners:
            raise ValueError(f"port {port} already listening")
        self._listeners[port] = on_accept

    def connect(self, remote_addr: str, remote_port: int,
                local_port: Optional[int] = None,
                config: Optional[TCPConfig] = None) -> TCPConnection:
        """Active-open a connection (sends the SYN immediately)."""
        if local_port is None:
            local_port = next(self._ephemeral)
        conn = self._make_connection(local_port, remote_addr, remote_port, config)
        conn.connect()
        return conn

    def close_all(self) -> None:
        for conn in list(self._connections.values()):
            if conn.is_open:
                conn.abort("stack_shutdown")

    # ------------------------------------------------------------------

    def _make_connection(self, local_port: int, remote_addr: str,
                         remote_port: int,
                         config: Optional[TCPConfig] = None) -> TCPConnection:
        key: ConnKey = (local_port, remote_addr, remote_port)
        if key in self._connections:
            raise ValueError(f"connection {key} already exists")

        def transmit(segment: TCPSegment, _remote=remote_addr) -> None:
            self.host.send(IPPacket(src=self.host.address, dst=_remote,
                                    proto=PROTO_TCP, payload=segment))

        # Deterministic per-connection ISS derived from the four-tuple.
        # Distinct connections must NOT share sequence spaces: the §II
        # mobility failure (split-connection ACKs arriving at the wrong
        # endpoint) only manifests when, as in real TCP, the initial
        # sequence numbers are unrelated.
        iss = zlib.crc32(
            f"{self.host.address}:{local_port}:{remote_addr}:{remote_port}"
            .encode("ascii")) & 0x0FFFFFFF
        conn = TCPConnection(self.sim, transmit,
                             local_addr=self.host.address,
                             local_port=local_port,
                             remote_addr=remote_addr,
                             remote_port=remote_port,
                             config=config if config is not None else self.config,
                             iss=iss)
        self._connections[key] = conn
        if self.spans is not None:
            conn.spans = self.spans
        if self.telemetry is not None:
            self.telemetry.register_connection(
                conn, f"{self.host.name}:{local_port}")
        return conn

    def _on_packet(self, pkt: IPPacket) -> None:
        if pkt.proto != PROTO_TCP:
            return
        segment: TCPSegment = pkt.payload  # type: ignore[assignment]
        key: ConnKey = (segment.dst_port, pkt.src, segment.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.segment_arrived(segment)
            return
        if segment.flags & (TCPSegment.SYN | TCPSegment.ACK) == TCPSegment.SYN:
            on_accept = self._listeners.get(segment.dst_port)
            if on_accept is not None:
                conn = self._make_connection(segment.dst_port, pkt.src,
                                             segment.src_port)
                conn.accept_syn(segment)
                on_accept(conn)
                return
        # No matching connection or listener: silently drop (a real
        # stack would send RST; nothing in the evaluation needs it).

    def release(self, conn: TCPConnection) -> bool:
        """Drop a fully-closed connection from the connection table.

        Single-transfer experiments never need this — their handful of
        connections die with the simulator.  A serving run churns
        thousands of short flows through one stack, and an unpruned
        table is exactly the per-flow state leak the flow pool's
        high-water-mark invariant guards against.  Only closed
        connections are released (a released key silently drops any
        late retransmission from the peer, which is why the pool
        lingers past the max RTO before calling this).
        """
        if conn.is_open:
            return False
        key: ConnKey = (conn.local_port, conn.remote_addr, conn.remote_port)
        if self._connections.get(key) is not conn:
            return False
        del self._connections[key]
        if self.telemetry is not None:
            # Duck-typed facade; older/fake facades may lack the hook.
            unregister = getattr(self.telemetry, "unregister_connection", None)
            if unregister is not None:
                unregister(conn)
        return True

    def connection_count(self) -> int:
        return len(self._connections)

    def connections(self):
        return list(self._connections.values())
