"""Unidirectional point-to-point link with wireless impairments.

Models the paper's test segment (Fig. 3): a traffic-shaped 1 MB/s link
whose packet loss rate is swept from 0 to 20 %.  In addition to random
loss the link supports payload corruption and re-ordering, the other
two trigger conditions for the circular-dependency bug (§IV).

Serialisation is modelled exactly: a packet of ``wire_size`` bytes
occupies the link for ``wire_size / bandwidth`` seconds, packets queue
FIFO behind one another (bounded by ``queue_limit``), and then take
``prop_delay`` seconds to propagate.  Loss/corruption/re-ordering are
applied per packet with independent probabilities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .engine import SimulationError, Simulator

if TYPE_CHECKING:  # type-only: the sim layer stays import-free of repro.net
    from ..net.packet import IPPacket


@dataclass
class LinkStats:
    """Counters accumulated by a link over a run."""

    packets_offered: int = 0
    packets_delivered: int = 0
    packets_lost: int = 0
    packets_corrupted: int = 0
    packets_reordered: int = 0
    packets_queue_dropped: int = 0
    bytes_offered: int = 0
    bytes_delivered: int = 0

    @property
    def loss_fraction(self) -> float:
        """Fraction of offered packets lost (channel + queue drops).

        A link that never carried a packet has no measurable loss
        fraction; nan is the "not measurable" marker the report layer
        renders as an em-dash (never raises, never prints ``None``).
        """
        if self.packets_offered == 0:
            return math.nan
        return (self.packets_lost + self.packets_queue_dropped) / self.packets_offered


class GilbertElliottLoss:
    """Two-state Markov (Gilbert-Elliott) bursty-loss process.

    The classic wireless-channel model: a *good* state with a low loss
    probability and a *bad* (fade/handover) state with a high one, with
    per-packet transition probabilities between them.  Attached to a
    link via :attr:`Link.loss_model` it **replaces** the link's uniform
    ``loss_rate`` while attached — the two are alternative loss
    processes, not additive ones.

    All randomness comes from the ``rng`` handed in (a named
    :class:`~repro.sim.rng.RngRegistry` stream), so a campaign replays
    bit-identically.
    """

    __slots__ = ("p_good_bad", "p_bad_good", "loss_good", "loss_bad",
                 "rng", "bad", "transitions", "losses")

    def __init__(self, rng: random.Random, *, p_good_bad: float = 0.05,
                 p_bad_good: float = 0.25, loss_good: float = 0.0,
                 loss_bad: float = 0.6, start_bad: bool = False) -> None:
        for name, value in (("p_good_bad", p_good_bad),
                            ("p_bad_good", p_bad_good),
                            ("loss_good", loss_good),
                            ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self.p_good_bad = p_good_bad
        self.p_bad_good = p_bad_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.rng = rng
        self.bad = start_bad
        self.transitions = 0
        self.losses = 0

    def lost(self) -> bool:
        """Advance the chain one packet; True when that packet is lost."""
        rng = self.rng
        if self.bad:
            if rng.random() < self.p_bad_good:
                self.bad = False
                self.transitions += 1
        elif rng.random() < self.p_good_bad:
            self.bad = True
            self.transitions += 1
        rate = self.loss_bad if self.bad else self.loss_good
        if rate > 0.0 and rng.random() < rate:
            self.losses += 1
            return True
        return False


class _DrawnParameter:
    """A link parameter that a packet's fate is drawn from.

    The value lives in the instance slot ``_<name>``, which the send
    path reads directly.  A write re-picks the link's crossing (see
    :class:`Link`) and raises :class:`SimulationError` while a packet
    accepted on the one-event crossing is still serialising: that
    packet's loss and re-order were drawn when it was offered, under
    the old value, where the two-event crossing would draw them under
    the new one.  Arm the link first (:meth:`Link.arm`, which every
    fault helper of :mod:`repro.sim.faults` does) to change it mid-run.
    """

    __slots__ = ("name", "slot")

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name
        self.slot = "_" + name

    def __get__(self, link: Optional["Link"], owner: type = None):
        if link is None:
            return self
        return link.__dict__[self.slot]

    def __set__(self, link: "Link", value) -> None:
        now = link.sim.now
        if link._drawn_until >= now:
            raise SimulationError(
                f"link {link.name!r}: {self.name} written at t={now} while "
                f"a packet whose fate was drawn when it was offered "
                f"serialises until t={link._drawn_until}; arm the link "
                f"before the run to change it mid-run")
        link.__dict__[self.slot] = value
        link._pick_path()


class Link:
    """One direction of a point-to-point link.

    A crossing takes one of two paths, picked per packet.  The
    **one-event** crossing draws loss, then re-ordering, in :meth:`send`
    and pushes ``_deliver`` alone (nothing for a lost packet).  The
    **two-event** crossing pushes ``_transmitted`` at the end of
    serialisation, which makes those draws then, from the same ``rng``
    in the same FIFO order, and pushes ``_deliver``.  Two events are
    taken only where the draw must wait for that instant:
    ``corrupt_rate > 0`` (corruption rewrites the payload), an armed
    fault (:meth:`arm`), or ``down`` / ``loss_model`` set; and while a
    two-event packet is still serialising, so the draws keep their FIFO
    order across a switch.  Writes to the parameters a fate is drawn
    from are guarded (see ``_DrawnParameter``).

    Parameters
    ----------
    sim:
        The simulation engine.
    bandwidth:
        Link rate in bytes per second (the paper shapes to 1 MB/s).
    prop_delay:
        One-way propagation delay in seconds.
    loss_rate / corrupt_rate / reorder_rate:
        Independent per-packet probabilities of drop, payload
        corruption, and re-ordering.
    reorder_extra_delay:
        Extra delay (seconds) added to a re-ordered packet so it lands
        behind packets transmitted after it.
    queue_limit:
        Maximum number of packets waiting for the transmitter (at least
        1, read-only); tail drop beyond it.
    rng:
        Deterministic random stream for the impairments.

    A link is built bare; the runner attaches its observers afterwards,
    and none of them changes the crossing.  ``spans`` is an optional
    causal span recorder (duck-typed, see ``repro.metrics.spans``): when
    set, traced packets get a ``link_transit`` span from ``send`` to
    delivery, closed with an outcome tag (delivered / lost /
    queue_drop) — the hop that carries a trace id across the gateway
    boundary — at the cost of one ``is not None`` check per packet when
    absent.  A packet lost on the one-event crossing closes its span at
    its end of serialisation, the time ``_transmitted`` would have run.
    Telemetry and the verifier read :meth:`settled` on their own ticks.
    """

    down = _DrawnParameter()
    loss_rate = _DrawnParameter()
    corrupt_rate = _DrawnParameter()
    reorder_rate = _DrawnParameter()
    loss_model = _DrawnParameter()
    prop_delay = _DrawnParameter()
    reorder_extra_delay = _DrawnParameter()

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        prop_delay: float,
        *,
        loss_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_extra_delay: float = 0.05,
        queue_limit: int = 1000,
        rng: Optional[random.Random] = None,
        name: str = "link",
    ):
        # Written ``not x > y`` so that NaN, which compares false either
        # way, is refused here and not at the first send of a run.
        if not bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if not prop_delay >= 0:
            raise ValueError(
                f"prop_delay must be non-negative, got {prop_delay}")
        if not reorder_extra_delay >= 0:
            raise ValueError("reorder_extra_delay must be non-negative, "
                             f"got {reorder_extra_delay}")
        for rate_name, rate in (("loss_rate", loss_rate),
                                ("corrupt_rate", corrupt_rate),
                                ("reorder_rate", reorder_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        # The ring below has ``queue_limit`` slots, so None, a fraction, a
        # float or a bool is refused here and not by the list it sizes.
        if (isinstance(queue_limit, bool)
                or not isinstance(queue_limit, int) or queue_limit < 1):
            raise ValueError("queue_limit must be an integer of at least 1, "
                             f"got {queue_limit!r}")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        # The slots behind the ``_DrawnParameter`` descriptors.
        self._prop_delay = float(prop_delay)
        self._loss_rate = float(loss_rate)
        self._corrupt_rate = float(corrupt_rate)
        self._reorder_rate = float(reorder_rate)
        self._reorder_extra_delay = float(reorder_extra_delay)
        self._queue_limit = queue_limit
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        self.receiver: Optional[Callable[[IPPacket], None]] = None
        self.stats = LinkStats()
        #: Administratively down (link flap / partition window): every
        #: packet reaching the transmitter is lost.  Toggled by
        #: :func:`repro.sim.faults.schedule_link_flap`.
        self._down = False
        #: Optional stateful loss process (:class:`GilbertElliottLoss`).
        #: While attached it replaces the uniform ``loss_rate``.
        self._loss_model: Optional[GilbertElliottLoss] = None
        self._busy_until = 0.0
        #: Two-event packets accepted and not yet transmitted.
        self._queued = 0
        #: A ring of the end-of-serialisation times of the last
        #: one-event packets, and beside it whether each was lost.
        #: ``_slot`` is the oldest slot, the one written next: the ring
        #: has ``queue_limit`` slots, so the queue is full when that
        #: slot is still in the future.
        self._ends = [-math.inf] * queue_limit
        self._lost = [False] * queue_limit
        self._slot = 0
        #: End of serialisation of the last one-event packet: until
        #: then a write to a drawn parameter raises.
        self._drawn_until = -math.inf
        self.spans = None
        #: Set by a fault helper that scheduled a fault here.
        self.armed = False
        self._pick_path()

    @property
    def queue_limit(self) -> int:
        """Tail-drop bound on the transmitter queue."""
        return self._queue_limit

    def connect(self, receiver: Callable[[IPPacket], None]) -> None:
        """Attach the callback invoked for each delivered packet."""
        self.receiver = receiver

    def arm(self) -> None:
        """Keep the two-event crossing for the rest of the run.

        The fault helpers of :mod:`repro.sim.faults` call this when they
        schedule a fault on the link, so a flap or a burst that starts
        while a packet queues still catches it.
        """
        self.armed = True
        self._pick_path()

    def _pick_path(self) -> None:
        self._one_event = not (
            self.armed or self._corrupt_rate or self._down
            or self._loss_model is not None)

    def settled(self) -> Tuple[int, int]:
        """``(queue depth, packets lost)`` as the link stands at ``sim.now``.

        The depth counts two-event packets not yet transmitted and
        one-event packets still serialising; the loss count leaves out
        one-event packets lost whose serialisation has not ended.  Both
        read as the two-event crossing would have them at this instant,
        so an observer's samples do not depend on the crossing.
        """
        now = self.sim.now
        serialising = lost = 0
        if self._drawn_until > now:
            serialising, lost = self._serialising(now)
        return self._queued + serialising, self.stats.packets_lost - lost

    def send(self, pkt: IPPacket) -> None:
        """Offer ``pkt`` to the link for transmission."""
        if self.receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        # A stored slot (IPPacket reads its payload's size once, at
        # construction, and again only after a rewrite in place).
        size = pkt.wire_size
        stats = self.stats
        stats.packets_offered += 1
        stats.bytes_offered += size
        spans = self.spans
        sim = self.sim
        now = sim.now

        if self._one_event and not self._queued:
            # The one-event crossing: ``_transmitted``'s draws, made now.
            ends = self._ends
            slot = self._slot
            if ends[slot] > now:
                # The oldest slot still serialises: the ring is full.
                stats.packets_queue_dropped += 1
                if spans is not None:
                    spans.packet_event("queue_drop", self.name,
                                       pkt.packet_id)
                return
            start = self._busy_until
            if start < now:
                start = now
            done = start + size / self.bandwidth
            if not done >= now:
                raise SimulationError(
                    f"cannot schedule event in the past: {done} < now {now}")
            self._busy_until = self._drawn_until = ends[slot] = done
            self._slot = slot + 1 if slot + 1 < self._queue_limit else 0
            if spans is not None:
                spans.link_begin(self.name, pkt.packet_id, size)
            rng = self.rng
            if rng.random() < self._loss_rate:
                self._lost[slot] = True
                stats.packets_lost += 1
                if spans is not None:
                    spans.link_end(pkt.packet_id, "lost", "loss", done)
                return
            self._lost[slot] = False
            delay = self._prop_delay
            if self._reorder_rate and rng.random() < self._reorder_rate:
                stats.packets_reordered += 1
                delay += rng.uniform(0.0, self._reorder_extra_delay)
                if spans is not None:
                    spans.link_annotate(pkt.packet_id, "reordered")
            # ``sim.post(done + delay, self._deliver, pkt)`` inline, with
            # ``_transmitted``'s delay guard.
            if not delay >= 0:
                raise SimulationError(f"negative delay: {delay}")
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._heap, (done + delay, seq, self._deliver, (pkt,),
                                 None))
            return

        queued = self._queued
        if self._drawn_until > now:
            queued += self._serialising(now)[0]
        if queued >= self._queue_limit:
            stats.packets_queue_dropped += 1
            if spans is not None:
                spans.packet_event("queue_drop", self.name, pkt.packet_id)
            return

        if spans is not None:
            spans.link_begin(self.name, pkt.packet_id, size)
        start = now
        if self._busy_until > start:
            start = self._busy_until
        self._busy_until = done = start + size / self.bandwidth
        self._queued += 1
        # ``sim.post(done, self._transmitted, pkt)`` inline, guard and
        # all (the heap-entry contract above ``Simulator.__init__``):
        # links never cancel a transmission, so the entry has no handle.
        if not done >= now:
            raise SimulationError(
                f"cannot schedule event in the past: {done} < now {now}")
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (done, seq, self._transmitted, (pkt,), None))

    # -- internal ---------------------------------------------------------

    def _serialising(self, now: float) -> Tuple[int, int]:
        """One-event packets still serialising at ``now``, and how many
        of them were lost: the ring walked back from its newest slot.
        One that ends exactly at ``now`` has left, where a two-event
        packet leaves when its ``_transmitted`` entry dispatches."""
        ends, lost = self._ends, self._lost
        slot = self._slot
        count = lost_count = 0
        for _ in range(self._queue_limit):
            slot -= 1               # a negative index wraps the ring
            if ends[slot] <= now:
                break
            count += 1
            lost_count += lost[slot]
        return count, lost_count

    def _transmitted(self, pkt: IPPacket) -> None:
        """Packet finished serialising; apply impairments and propagate.

        Loss, ``down`` and ``loss_model`` are sampled here, at the end
        of serialisation and not in :meth:`send`: a flap or a burst that
        starts while the packet queues must still catch it, and
        corruption rewrites the payload as it leaves.  That is why a
        corrupting or armed link crosses in two events.
        """
        self._queued -= 1
        spans = self.spans

        if self._down:
            self.stats.packets_lost += 1
            if spans is not None:
                spans.link_end(pkt.packet_id, "lost", "link_down")
            return

        loss_model = self._loss_model
        if loss_model is not None:
            if loss_model.lost():
                self.stats.packets_lost += 1
                if spans is not None:
                    spans.link_end(pkt.packet_id, "lost", "bursty_loss")
                return
        elif self.rng.random() < self._loss_rate:
            self.stats.packets_lost += 1
            if spans is not None:
                spans.link_end(pkt.packet_id, "lost", "loss")
            return

        if self._corrupt_rate and self.rng.random() < self._corrupt_rate:
            self.stats.packets_corrupted += 1
            pkt = self._corrupt(pkt)
            if spans is not None:
                spans.link_annotate(pkt.packet_id, "corrupted")

        delay = self._prop_delay
        if self._reorder_rate and self.rng.random() < self._reorder_rate:
            self.stats.packets_reordered += 1
            delay += self.rng.uniform(0.0, self._reorder_extra_delay)
            if spans is not None:
                spans.link_annotate(pkt.packet_id, "reordered")

        # ``sim.post_after(delay, self._deliver, pkt)`` inline.
        if not delay >= 0:
            raise SimulationError(f"negative delay: {delay}")
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (sim.now + delay, seq, self._deliver, (pkt,),
                             None))

    def _deliver(self, pkt: IPPacket) -> None:
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += pkt.wire_size
        spans = self.spans
        if spans is not None:
            spans.link_end(pkt.packet_id, "delivered")
        assert self.receiver is not None
        self.receiver(pkt)

    def _corrupt(self, pkt: IPPacket) -> IPPacket:
        """Flip some payload bytes in place.

        With 20 % probability the damage hits the headers instead
        (modelled as ``header_corrupt``, dropped by the next IP hop the
        way a bad IP checksum would be).
        """
        if self.rng.random() < 0.2 or not getattr(pkt.payload, "data", b""):
            pkt.header_corrupt = True
            return pkt
        data = bytearray(pkt.payload.data)
        n_flips = max(1, self.rng.randint(1, 4))
        for _ in range(n_flips):
            pos = self.rng.randrange(len(data))
            data[pos] ^= self.rng.randint(1, 255)
        pkt.payload.data = bytes(data)
        pkt.reread_size()
        return pkt

