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
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

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


#: :meth:`Link.write_at`'s default ``replacing``: write unconditionally.
_ANY = object()

#: The parameters :meth:`Link.send` draws a packet's fate from, which
#: :meth:`Link.write_at` may change mid-run.
_TIMED = frozenset({"down", "loss_rate", "loss_model", "corrupt_rate",
                    "reorder_rate", "prop_delay", "reorder_extra_delay"})


class Link:
    """One direction of a point-to-point link.

    A crossing is one event.  :meth:`send` draws the packet's fate —
    ``down`` (no draw), then loss from ``loss_model`` when one is
    attached and else from ``loss_rate``, then corruption, then
    re-ordering — from the parameters in force at its end of
    serialisation, and pushes ``_deliver`` alone (nothing for a lost
    packet).  Packets leave in FIFO order, so the draws come from each
    stream in the order of those instants.  A fault that changes a
    parameter mid-run is a timed write (:meth:`write_at`), recorded
    when the fault is armed and taken up by the first packet whose
    serialisation ends at or after its time.

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
        1); tail drop beyond it.
    rng:
        Deterministic random stream for the impairments.

    A link is built bare; the runner attaches its observers afterwards,
    and none of them changes the crossing.  ``spans`` is an optional
    causal span recorder (duck-typed, see ``repro.metrics.spans``): when
    set, traced packets get a ``link_transit`` span from ``send`` to
    delivery, closed with an outcome tag (delivered / lost /
    queue_drop) — the hop that carries a trace id across the gateway
    boundary — at the cost of one ``is not None`` check per packet when
    absent.  A lost packet closes its span at its end of serialisation.
    Telemetry and the verifier read :meth:`settled` on their own ticks.
    """

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
        self.prop_delay = float(prop_delay)
        self.loss_rate = float(loss_rate)
        self.corrupt_rate = float(corrupt_rate)
        self.reorder_rate = float(reorder_rate)
        self.reorder_extra_delay = float(reorder_extra_delay)
        self._queue_limit = queue_limit
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        self.receiver: Optional[Callable[[IPPacket], None]] = None
        self.stats = LinkStats()
        #: Administratively down (link flap / partition window): every
        #: packet leaving the transmitter is lost.  Written on a timeline
        #: by :func:`repro.sim.faults.schedule_link_flap`.
        self.down = False
        #: Optional stateful loss process (:class:`GilbertElliottLoss`).
        #: While attached it replaces the uniform ``loss_rate``.
        self.loss_model: Optional[GilbertElliottLoss] = None
        #: End of serialisation of the last packet accepted.
        self._busy_until = -math.inf
        #: A ring of the end-of-serialisation times of the last packets,
        #: and beside it whether each was lost.  ``_slot`` is the oldest
        #: slot, the one written next: the ring has ``queue_limit``
        #: slots, so the queue is full when that slot is still in the
        #: future.
        self._ends = [-math.inf] * queue_limit
        self._lost = [False] * queue_limit
        self._slot = 0
        #: Timed writes not yet taken up, a heap of ``(at, order, name,
        #: value, replacing)``.
        self._writes: List[Tuple[float, int, str, Any, Any]] = []
        self._writes_made = 0
        self.spans = None

    def connect(self, receiver: Callable[[IPPacket], None]) -> None:
        """Attach the callback invoked for each delivered packet."""
        self.receiver = receiver

    def write_at(self, at: float, name: str, value: Any,
                 replacing: Any = _ANY) -> None:
        """Set parameter ``name`` to ``value`` for every packet whose
        serialisation ends at or after ``at``; with ``replacing``, only
        if the parameter then still holds that very object.

        Writes timed alike take effect in the order they were made.  A
        packet's fate is drawn when it is offered, so a write timed in
        the past, or at or before the end of serialisation of a packet
        already offered, raises :class:`SimulationError`: arm faults
        before the traffic they should catch.
        """
        if name not in _TIMED:
            raise ValueError(f"link {self.name!r} has no timed parameter "
                             f"{name!r}")
        now = self.sim.now
        if not (at >= now and at > self._busy_until):
            raise SimulationError(
                f"link {self.name!r}: {name} write timed at t={at} falls "
                f"before now (t={now}) or at or before t="
                f"{self._busy_until}, the end of serialisation of a packet "
                f"whose fate is already drawn")
        self._writes_made += 1
        heappush(self._writes, (at, self._writes_made, name, value,
                                replacing))

    def settled(self) -> Tuple[int, int]:
        """``(queue depth, packets lost)`` as the link stands at ``sim.now``.

        The depth counts packets still serialising; the loss count
        leaves out packets lost whose serialisation has not ended.
        """
        now = self.sim.now
        serialising = lost = 0
        if self._busy_until > now:
            serialising, lost = self._serialising(now)
        return serialising, self.stats.packets_lost - lost

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

        ends = self._ends
        slot = self._slot
        if ends[slot] > now:
            # The oldest slot still serialises: the ring is full.
            stats.packets_queue_dropped += 1
            if spans is not None:
                spans.packet_event("queue_drop", self.name, pkt.packet_id)
            return
        start = self._busy_until
        if start < now:
            start = now
        done = start + size / self.bandwidth
        if not done >= now:
            raise SimulationError(
                f"cannot schedule event in the past: {done} < now {now}")
        self._busy_until = ends[slot] = done
        self._slot = slot + 1 if slot + 1 < self._queue_limit else 0
        if spans is not None:
            spans.link_begin(self.name, pkt.packet_id, size)
        writes = self._writes
        if writes and writes[0][0] <= done:
            self._take_writes(done)
        rng = self.rng
        if self.down:
            reason = "link_down"
        elif self.loss_model is not None:
            reason = "bursty_loss" if self.loss_model.lost() else None
        else:
            reason = "loss" if rng.random() < self.loss_rate else None
        if reason is not None:
            self._lost[slot] = True
            stats.packets_lost += 1
            if spans is not None:
                spans.link_end(pkt.packet_id, "lost", reason, done)
            return
        self._lost[slot] = False
        if self.corrupt_rate and rng.random() < self.corrupt_rate:
            stats.packets_corrupted += 1
            self._corrupt(pkt)
            if spans is not None:
                spans.link_annotate(pkt.packet_id, "corrupted")
        delay = self.prop_delay
        if self.reorder_rate and rng.random() < self.reorder_rate:
            stats.packets_reordered += 1
            delay += rng.uniform(0.0, self.reorder_extra_delay)
            if spans is not None:
                spans.link_annotate(pkt.packet_id, "reordered")
        # ``sim.post(done + delay, self._deliver, pkt)`` inline, with a
        # delay guard (the heap-entry contract above
        # ``Simulator.__init__``): links never cancel a delivery, so the
        # entry has no handle.
        if not delay >= 0:
            raise SimulationError(f"negative delay: {delay}")
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (done + delay, seq, self._deliver, (pkt,), None))

    # -- internal ---------------------------------------------------------

    def _serialising(self, now: float) -> Tuple[int, int]:
        """Packets still serialising at ``now``, and how many of them
        were lost: the ring walked back from its newest slot.  One that
        ends exactly at ``now`` has left."""
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

    def _take_writes(self, done: float) -> None:
        """Apply, in order, every timed write due at or before ``done``."""
        writes = self._writes
        while writes and writes[0][0] <= done:
            _at, _order, name, value, replacing = heappop(writes)
            if replacing is _ANY or getattr(self, name) is replacing:
                setattr(self, name, value)

    def _deliver(self, pkt: IPPacket) -> None:
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += pkt.wire_size
        spans = self.spans
        if spans is not None:
            spans.link_end(pkt.packet_id, "delivered")
        assert self.receiver is not None
        self.receiver(pkt)

    def _corrupt(self, pkt: IPPacket) -> None:
        """Flip some payload bytes in place.

        With 20 % probability the damage hits the headers instead
        (modelled as ``header_corrupt``, dropped by the next IP hop the
        way a bad IP checksum would be).
        """
        if self.rng.random() < 0.2 or not getattr(pkt.payload, "data", b""):
            pkt.header_corrupt = True
            return
        data = bytearray(pkt.payload.data)
        for _ in range(self.rng.randint(1, 4)):
            pos = self.rng.randrange(len(data))
            data[pos] ^= self.rng.randint(1, 255)
        pkt.payload.data = bytes(data)
        pkt.reread_size()

