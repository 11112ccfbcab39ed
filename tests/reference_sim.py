"""Link and timer scheduling as it was before they pushed their own entries.

``Link.send`` once scheduled the end of serialisation through
``Simulator.post``, and ``Link._transmitted`` drew the packet's fate
then and scheduled the delivery through ``Simulator.post_after``;
``Timer.start`` armed through ``Simulator.at``.  Production now builds
those heap entries inline (the heap-entry contract above
``Simulator.__init__``) and crosses a link in one event.  This module
keeps the old scheduling under the same class names so a differential
test can run both on twin simulators and compare what each dispatches,
callback qualname included.  :class:`Link` stands alone: it shares only
:class:`~repro.sim.link.LinkStats` with production, and it takes a
timed write (``write_at``) up when a ``_transmitted`` entry dispatches
at or after its time, the instant the old fault helpers' ``sim.at``
writes had already run.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Optional

from repro.sim.engine import Event, Simulator
from repro.sim.link import LinkStats

_ANY = object()


class Link:
    """The two-event link: ``send`` queues, ``_transmitted`` draws."""

    def __init__(self, sim: Simulator, bandwidth: float, prop_delay: float,
                 *, loss_rate: float = 0.0, corrupt_rate: float = 0.0,
                 reorder_rate: float = 0.0, reorder_extra_delay: float = 0.05,
                 queue_limit: int = 1000,
                 rng: Optional[random.Random] = None, name: str = "link"):
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.prop_delay = float(prop_delay)
        self.loss_rate = float(loss_rate)
        self.corrupt_rate = float(corrupt_rate)
        self.reorder_rate = float(reorder_rate)
        self.reorder_extra_delay = float(reorder_extra_delay)
        self.queue_limit = queue_limit
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        self.receiver: Optional[Callable] = None
        self.stats = LinkStats()
        self.down = False
        self.loss_model = None
        self.spans = None
        self._busy_until = -math.inf
        self._queued = 0
        #: Timed writes not yet taken up, in the order they take effect.
        self._writes = []

    def connect(self, receiver: Callable) -> None:
        self.receiver = receiver

    def write_at(self, at: float, name: str, value: Any,
                 replacing: Any = _ANY) -> None:
        self._writes.append((at, len(self._writes), name, value, replacing))
        self._writes.sort(key=lambda write: write[:2])

    def settled(self):
        return self._queued, self.stats.packets_lost

    def send(self, pkt) -> None:
        """Offer ``pkt`` to the link for transmission."""
        if self.receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        size = pkt.wire_size
        stats = self.stats
        stats.packets_offered += 1
        stats.bytes_offered += size
        spans = self.spans

        if self._queued >= self.queue_limit:
            stats.packets_queue_dropped += 1
            if spans is not None:
                spans.packet_event("queue_drop", self.name, pkt.packet_id)
            return

        if spans is not None:
            spans.link_begin(self.name, pkt.packet_id, size)
        sim = self.sim
        start = max(sim.now, self._busy_until)
        self._busy_until = done = start + size / self.bandwidth
        self._queued += 1
        sim.post(done, self._transmitted, pkt)

    def _transmitted(self, pkt) -> None:
        """Packet finished serialising; apply impairments and propagate."""
        self._queued -= 1
        spans = self.spans
        while self._writes and self._writes[0][0] <= self.sim.now:
            _at, _order, name, value, replacing = self._writes.pop(0)
            if replacing is _ANY or getattr(self, name) is replacing:
                setattr(self, name, value)

        if self.down:
            self.stats.packets_lost += 1
            if spans is not None:
                spans.link_end(pkt.packet_id, "lost", "link_down")
            return

        loss_model = self.loss_model
        if loss_model is not None:
            if loss_model.lost():
                self.stats.packets_lost += 1
                if spans is not None:
                    spans.link_end(pkt.packet_id, "lost", "bursty_loss")
                return
        elif self.rng.random() < self.loss_rate:
            self.stats.packets_lost += 1
            if spans is not None:
                spans.link_end(pkt.packet_id, "lost", "loss")
            return

        if self.corrupt_rate and self.rng.random() < self.corrupt_rate:
            self.stats.packets_corrupted += 1
            self._corrupt(pkt)
            if spans is not None:
                spans.link_annotate(pkt.packet_id, "corrupted")

        delay = self.prop_delay
        if self.reorder_rate and self.rng.random() < self.reorder_rate:
            self.stats.packets_reordered += 1
            delay += self.rng.uniform(0.0, self.reorder_extra_delay)
            if spans is not None:
                spans.link_annotate(pkt.packet_id, "reordered")

        self.sim.post_after(delay, self._deliver, pkt)

    def _deliver(self, pkt) -> None:
        self.stats.packets_delivered += 1
        self.stats.bytes_delivered += pkt.wire_size
        if self.spans is not None:
            self.spans.link_end(pkt.packet_id, "delivered")
        self.receiver(pkt)

    def _corrupt(self, pkt) -> None:
        """Flip some payload bytes in place (or mark the headers bad)."""
        if self.rng.random() < 0.2 or not getattr(pkt.payload, "data", b""):
            pkt.header_corrupt = True
            return
        data = bytearray(pkt.payload.data)
        n_flips = max(1, self.rng.randint(1, 4))
        for _ in range(n_flips):
            pos = self.rng.randrange(len(data))
            data[pos] ^= self.rng.randint(1, 255)
        pkt.payload.data = bytes(data)
        pkt.reread_size()


class Timer:
    """The old restartable one-shot timer, arming through ``sim.at``."""

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        sim = self._sim
        event = self._event
        if event is not None and not (event.cancelled or event.done):
            event.cancelled = True
            sim._cancelled += 1
        self._event = sim.at(sim.now + delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
