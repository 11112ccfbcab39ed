"""File-transfer application used by the experiments.

Mirrors the paper's setup (Fig. 3): a client retrieves a file from a
server across the byte-caching pair.  The protocol is a single request
line ``GET <name>\\n``; the server replies with the raw file bytes and
closes.  The client treats the server's FIN as end-of-file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..net.tcp import TCPConnection, TCPStack
from ..sim.engine import Simulator


class FileServer:
    """Serves named byte objects over simulated TCP."""

    def __init__(self, stack: TCPStack, files: Dict[str, bytes], port: int = 80):
        self.stack = stack
        self.files = files      # anything with .get (a lazy catalog view too)
        self.port = port
        self.requests_served = 0
        self.requests_failed = 0
        stack.listen(port, self._accept)

    def _accept(self, conn: TCPConnection) -> None:
        buffer = bytearray()

        def on_receive(data: bytes) -> None:
            buffer.extend(data)
            if b"\n" not in buffer:
                return
            line, _, _ = bytes(buffer).partition(b"\n")
            conn.on_receive = None  # single-request protocol
            self._respond(conn, line)

        conn.on_receive = on_receive

    def _respond(self, conn: TCPConnection, line: bytes) -> None:
        parts = line.decode("ascii", "replace").split()
        name = parts[1] if len(parts) >= 2 and parts[0] == "GET" else None
        data = self.files.get(name) if name else None
        if data is None:
            self.requests_failed += 1
            conn.close()
            return
        self.requests_served += 1
        conn.send(data)
        conn.close()


@dataclass
class TransferOutcome:
    """Client-observed outcome of one file retrieval."""

    name: str
    expected_size: int
    bytes_received: int = 0
    started_at: float = 0.0
    first_byte_at: Optional[float] = None
    finished_at: Optional[float] = None
    completed: bool = False
    stalled: bool = False
    close_reason: Optional[str] = None
    content_ok: Optional[bool] = None

    @property
    def duration(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def fraction_retrieved(self) -> float:
        if self.expected_size == 0:
            return 1.0
        return min(1.0, self.bytes_received / self.expected_size)


class FileClient:
    """Retrieves one file and records the paper's client-side metrics."""

    def __init__(self, stack: TCPStack, sim: Simulator):
        self.stack = stack
        self.sim = sim

    def fetch(self, server_addr: str, name: str, expected_size: int,
              expected_content: Optional[bytes] = None,
              port: int = 80,
              on_data: Optional[Callable[[bytes], None]] = None,
              on_done: Optional[Callable[[TransferOutcome], None]] = None,
              conn_sink: Optional[Callable[[TCPConnection], None]] = None
              ) -> TransferOutcome:
        """Start a retrieval; returns the live outcome object.

        The outcome is filled in as the simulation runs; ``on_data``
        observes every in-order chunk as TCP delivers it (the
        verification layer's byte-integrity oracle and the differential
        runner's stream capture hang here); ``on_done`` fires when the
        transfer completes or the connection dies.  ``conn_sink``
        receives the underlying connection object at open time — the
        serving engine's flow pool needs it for timeout aborts and
        post-close release, while the outcome itself stays a pure value
        object (see below).
        """
        outcome = TransferOutcome(name=name, expected_size=expected_size,
                                  started_at=self.sim.now)
        received = bytearray() if expected_content is not None else None
        conn = self.stack.connect(server_addr, port)
        if conn_sink is not None:
            conn_sink(conn)

        def finish(stalled: bool, reason: Optional[str]) -> None:
            if outcome.finished_at is not None:
                return
            outcome.finished_at = self.sim.now
            outcome.stalled = stalled
            outcome.close_reason = reason
            outcome.completed = (not stalled
                                 and outcome.bytes_received >= expected_size)
            if received is not None:
                outcome.content_ok = bytes(received) == expected_content
            if on_done is not None:
                on_done(outcome)

        def on_receive(data: bytes) -> None:
            if outcome.first_byte_at is None:
                outcome.first_byte_at = self.sim.now
            if on_data is not None:
                on_data(data)
            outcome.bytes_received += len(data)
            if received is not None:
                received.extend(data)

        conn.on_established = lambda: conn.send(f"GET {name}\n".encode("ascii"))
        conn.on_receive = on_receive
        conn.on_remote_close = lambda: finish(stalled=False, reason="fin")
        conn.on_close = lambda reason: finish(
            stalled=(reason not in ("fin",)), reason=reason)
        # Deliberately no back-reference to the connection: the outcome
        # must stay a pure value object (the sweep engine pickles it
        # across process-pool workers and round-trips it through JSON).
        return outcome
