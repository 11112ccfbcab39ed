"""Network nodes and static routing.

Three kinds of node exist in the testbed topologies:

* :class:`Host` — an endpoint owning transport stacks (TCP/UDP) bound
  to a single IP address.
* :class:`Middlebox` — an on-path element (the byte-caching gateways)
  that inspects/rewrites packets and forwards them.
* plain :class:`Node` — a forwarding-only hop, useful in tests.

Routing is static: each node maps destination addresses to outgoing
links, with an optional default route.  This mirrors the paper's fixed
testbed (Fig. 3) where a single path connects client and server.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from .engine import Simulator

if TYPE_CHECKING:  # type-only: the sim layer stays import-free of repro.net
    from ..net.packet import IPPacket


class Node:
    """A forwarding node with a static route table."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: Duck-typed flight recorder (repro.metrics.telemetry): the run's
        #: one event log, attached by the runner when telemetry or verify
        #: is armed.  None costs each event site one attribute check.
        self.recorder = None
        self.routes: Dict[str, object] = {}
        self.default_route: Optional[object] = None
        self.packets_forwarded = 0
        self.packets_dropped = 0

    def note(self, event: str, **detail: Any) -> None:
        """Log one event to the attached recorder, if any."""
        recorder = self.recorder
        if recorder is not None:
            recorder.record(self.sim.now, self.name, event, detail)

    def add_route(self, dst: str, link: object) -> None:
        """Send packets destined for ``dst`` out of ``link``."""
        self.routes[dst] = link

    def set_default_route(self, link: object) -> None:
        self.default_route = link

    def receive(self, pkt: IPPacket) -> None:
        """Entry point invoked by an attached link."""
        if pkt.header_corrupt:
            # A corrupted IP header fails its checksum at the next hop.
            self.packets_dropped += 1
            self.note("drop_header_corrupt", packet_id=pkt.packet_id)
            return
        self.handle(pkt)

    def forward(self, pkt: IPPacket) -> None:
        pkt.ttl -= 1
        if pkt.ttl <= 0:
            self.packets_dropped += 1
            self.note("drop_ttl", packet_id=pkt.packet_id)
            return
        link = self.routes.get(pkt.dst, self.default_route)
        if link is None:
            self.packets_dropped += 1
            self.note("drop_no_route", packet_id=pkt.packet_id, dst=pkt.dst)
            return
        self.packets_forwarded += 1
        link.send(pkt)

    #: What :meth:`receive` does with a sound packet; subclasses override
    #: it.  A plain node forwards, and binding the method itself (not a
    #: wrapper calling it) makes a forwarding hop two frames, not three.
    handle = forward

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # ``handle = forward`` bound a function, not a call of
        # ``self.forward``: a subclass that inherits that binding gets
        # it re-bound to its own ``forward``, overridden or not.
        parent = super(cls, cls)
        if "handle" not in vars(cls) and parent.handle is parent.forward:
            cls.handle = cls.forward


class Host(Node):
    """An endpoint: owns an address and per-protocol receive handlers."""

    def __init__(self, sim: Simulator, name: str, address: str):
        super().__init__(sim, name)
        self.address = address
        self._protocol_handlers: Dict[int, Callable[[IPPacket], None]] = {}

    def register_protocol(self, proto: int,
                          handler: Callable[[IPPacket], None]) -> None:
        """Attach the upper-layer handler for an IP protocol number."""
        if proto in self._protocol_handlers:
            raise ValueError(f"protocol {proto} already registered on {self.name}")
        self._protocol_handlers[proto] = handler

    def send(self, pkt: IPPacket) -> None:
        """Transmit a locally originated packet."""
        pkt.created_at = self.sim.now
        link = self.routes.get(pkt.dst, self.default_route)
        if link is None:
            raise RuntimeError(f"{self.name}: no route to {pkt.dst}")
        link.send(pkt)

    def handle(self, pkt: IPPacket) -> None:
        if pkt.dst != self.address:
            self.forward(pkt)
            return
        handler = self._protocol_handlers.get(pkt.proto)
        if handler is None:
            self.packets_dropped += 1
            self.note("drop_no_handler", proto=pkt.proto)
            return
        handler(pkt)


class Middlebox(Node):
    """An on-path packet processor.

    Subclasses (the byte-caching gateways) override :meth:`process`.
    ``process`` returns the packet to forward onwards, or ``None`` to
    consume/drop it.
    """

    def handle(self, pkt: IPPacket) -> None:
        out = self.process(pkt)
        if out is not None:
            self.forward(out)

    def process(self, pkt: IPPacket) -> Optional[IPPacket]:
        return pkt
