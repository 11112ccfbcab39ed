"""Link and timer scheduling as it was before they pushed their own entries.

``Link.send`` once scheduled the end of serialisation through
``Simulator.post`` and ``Link._transmitted`` the delivery through
``Simulator.post_after``; ``Timer.start`` armed through
``Simulator.at``.  Production now builds those heap entries inline
(the heap-entry contract above ``Simulator.__init__``), and a link
without an armed fault crosses in one event.  This module keeps the old
scheduling, line for line, under the same class names so a
differential test can run both on twin simulators and compare what
each dispatches, callback qualname included: :class:`Link` always
crosses in two events, and :class:`PathLink` picks the crossing by the
production rule and writes it in plain ``sim.post`` form.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim import link as _link
from repro.sim.engine import Event, Simulator


class Link(_link.Link):
    """The production link with its old ``send`` and ``_transmitted``."""

    def send(self, pkt) -> None:
        """Offer ``pkt`` to the link for transmission."""
        if self.receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        size = pkt.wire_size
        stats = self.stats
        stats.packets_offered += 1
        stats.bytes_offered += size
        spans = self.spans

        if self.queue_limit is not None and self._queued >= self.queue_limit:
            stats.packets_queue_dropped += 1
            if spans is not None:
                spans.packet_event("queue_drop", self.name, pkt.packet_id)
            return

        if spans is not None:
            spans.link_begin(self.name, pkt.packet_id, size)
        sim = self.sim
        start = sim.now
        if self._busy_until > start:
            start = self._busy_until
        self._busy_until = done = start + size / self.bandwidth
        self._queued += 1
        sim.post(done, self._transmitted, pkt)

    def _transmitted(self, pkt) -> None:
        """Packet finished serialising; apply impairments and propagate."""
        self._queued -= 1
        spans = self.spans

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
            pkt = self._corrupt(pkt)
            if spans is not None:
                spans.link_annotate(pkt.packet_id, "corrupted")

        delay = self.prop_delay
        if self.reorder_rate and self.rng.random() < self.reorder_rate:
            self.stats.packets_reordered += 1
            delay += self.rng.uniform(0.0, self.reorder_extra_delay)
            if spans is not None:
                spans.link_annotate(pkt.packet_id, "reordered")

        self.sim.post_after(delay, self._deliver, pkt)


class PathLink(Link):
    """The two crossings in plain ``sim.post`` form, picked per packet.

    A packet crosses in one event when the link has no armed fault
    (``armed``), ``corrupt_rate == 0``, is up with no loss model, and
    no two-event packet is still serialising; observers do not matter.
    Then loss and re-order are drawn at offer time and only ``_deliver``
    is posted, and a lost packet's transit span closes at its end of
    serialisation.  The one-event packets count in the transmitter
    queue until the end of their serialisation; one that ends exactly
    now has left.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: End of serialisation of every one-event packet still queued.
        self.one_event_done = []

    def send(self, pkt) -> None:
        if self.receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        size = pkt.wire_size
        stats = self.stats
        stats.packets_offered += 1
        stats.bytes_offered += size
        spans = self.spans
        sim = self.sim
        self.one_event_done = [done for done in self.one_event_done
                               if done > sim.now]
        queued = self._queued + len(self.one_event_done)
        if self.queue_limit is not None and queued >= self.queue_limit:
            stats.packets_queue_dropped += 1
            if spans is not None:
                spans.packet_event("queue_drop", self.name, pkt.packet_id)
            return

        one_event = (self._queued == 0
                     and not (self.armed or self.corrupt_rate
                              or self.down or self.loss_model is not None))
        if spans is not None:
            spans.link_begin(self.name, pkt.packet_id, size)
        start = max(sim.now, self._busy_until)
        self._busy_until = done = start + size / self.bandwidth
        if not one_event:
            self._queued += 1
            sim.post(done, self._transmitted, pkt)
            return

        self.one_event_done.append(done)
        if self.rng.random() < self.loss_rate:
            stats.packets_lost += 1
            if spans is not None:
                spans.link_end(pkt.packet_id, "lost", "loss", done)
            return
        delay = self.prop_delay
        if self.reorder_rate and self.rng.random() < self.reorder_rate:
            stats.packets_reordered += 1
            delay += self.rng.uniform(0.0, self.reorder_extra_delay)
            if spans is not None:
                spans.link_annotate(pkt.packet_id, "reordered")
        sim.post(done + delay, self._deliver, pkt)


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
