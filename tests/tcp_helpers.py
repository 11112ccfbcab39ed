"""Shared helpers for TCP tests: two hosts joined by scriptable links."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from repro.net.packet import IPPacket
from repro.net.tcp import TCPConfig, TCPStack
from repro.sim import Host, Simulator


class ScriptedLink:
    """Zero-bandwidth-model link with a deterministic drop predicate.

    ``drop(pkt, index)`` is consulted for each offered packet (``index``
    counts offers on this link, starting at 0); True drops it.
    """

    def __init__(self, sim: Simulator, delay: float = 0.005,
                 drop: Optional[Callable[[IPPacket, int], bool]] = None):
        self.sim = sim
        self.delay = delay
        self.drop = drop if drop is not None else (lambda pkt, index: False)
        self.receiver = None
        self.offered = 0
        self.dropped = 0
        self.delivered = []

    def connect(self, receiver) -> None:
        self.receiver = receiver

    def send(self, pkt: IPPacket) -> None:
        index = self.offered
        self.offered += 1
        if self.drop(pkt, index):
            self.dropped += 1
            return
        self.delivered.append(pkt)
        self.sim.after(self.delay, self.receiver, pkt)


def drop_indices(*indices: int) -> Callable[[IPPacket, int], bool]:
    """Drop the packets at the given offer indices."""
    wanted = set(indices)
    return lambda pkt, index: index in wanted


def drop_data_segments(*offsets: int, once: bool = True, copies: int = 1):
    """Drop TCP data segments at the given *stream offsets*.

    Offsets are relative to the first data byte of the flow (i.e.
    independent of the connection's ISS); the first ``copies`` copies
    of each are dropped when ``once``, every copy otherwise.
    """
    wanted = set(offsets)
    dropped: Counter = Counter()
    base: dict = {}

    def predicate(pkt: IPPacket, index: int) -> bool:
        segment = pkt.tcp
        if segment is None or not segment.data:
            return False
        flow = (pkt.src, segment.src_port, pkt.dst, segment.dst_port)
        if flow not in base or segment.seq < base[flow]:
            base[flow] = segment.seq
        offset = segment.seq - base[flow]
        if offset in wanted and (not once
                                 or dropped[flow, offset] < copies):
            dropped[flow, offset] += 1
            return True
        return False

    return predicate


class TcpTestbed:
    """Client and server hosts joined by two scriptable links."""

    def __init__(self, drop_c2s=None, drop_s2c=None,
                 config: Optional[TCPConfig] = None, delay: float = 0.005):
        self.sim = Simulator()
        self.client = Host(self.sim, "client", "10.0.0.1")
        self.server = Host(self.sim, "server", "10.0.0.2")
        self.c2s = ScriptedLink(self.sim, delay, drop_c2s)
        self.s2c = ScriptedLink(self.sim, delay, drop_s2c)
        self.c2s.connect(self.server.receive)
        self.s2c.connect(self.client.receive)
        self.client.add_route("10.0.0.2", self.c2s)
        self.server.add_route("10.0.0.1", self.s2c)
        cfg = config if config is not None else TCPConfig()
        self.client_stack = TCPStack(self.sim, self.client, cfg)
        self.server_stack = TCPStack(self.sim, self.server, cfg)

    def serve_bytes(self, data: bytes, port: int = 80):
        """Server sends ``data`` and closes as soon as a request lands."""
        def accept(conn):
            def on_receive(_request):
                conn.send(data)
                conn.close()
            conn.on_receive = on_receive
        self.server_stack.listen(port, accept)

    def fetch(self, port: int = 80):
        """Client connects, sends a one-line request, collects the body."""
        received = bytearray()
        events = {}
        conn = self.client_stack.connect("10.0.0.2", port)
        conn.on_established = lambda: conn.send(b"GET\n")
        conn.on_receive = received.extend
        conn.on_remote_close = lambda: events.setdefault("eof", self.sim.now)
        conn.on_close = lambda reason: events.setdefault("close", reason)
        return conn, received, events
