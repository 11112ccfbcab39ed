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
from typing import TYPE_CHECKING, Callable, Optional

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


class Link:
    """One direction of a point-to-point link.

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
        Maximum number of packets waiting for the transmitter; tail
        drop beyond it.  ``None`` means unbounded.
    rng:
        Deterministic random stream for the impairments.
    telemetry:
        Optional telemetry facade (duck-typed, see
        ``repro.metrics.telemetry``).  When given, the link registers
        pull gauges for its queue depth and loss counters — sampled on
        the telemetry tick, so the send path itself carries no extra
        per-packet work.
    spans:
        Optional causal span recorder (duck-typed, see
        ``repro.metrics.spans``).  When given, traced packets get a
        ``link_transit`` span from transmitter to delivery, closed
        with an outcome tag (delivered / lost / queue_drop) — the hop
        that carries a trace id across the gateway boundary.  Costs a
        single ``is not None`` check per packet when absent.
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
        queue_limit: Optional[int] = 1000,
        rng: Optional[random.Random] = None,
        name: str = "link",
        telemetry=None,
        spans=None,
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
        self.receiver: Optional[Callable[[IPPacket], None]] = None
        self.stats = LinkStats()
        #: Administratively down (link flap / partition window): every
        #: packet reaching the transmitter is lost.  Toggled by
        #: :func:`repro.sim.faults.schedule_link_flap`.
        self.down = False
        #: Optional stateful loss process (:class:`GilbertElliottLoss`).
        #: While attached it replaces the uniform ``loss_rate``.
        self.loss_model: Optional[GilbertElliottLoss] = None
        self._busy_until = 0.0
        self._queued = 0
        self.spans = spans
        if telemetry is not None:
            telemetry.register_link(self)

    def connect(self, receiver: Callable[[IPPacket], None]) -> None:
        """Attach the callback invoked for each delivered packet."""
        self.receiver = receiver

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

        if self.queue_limit is not None and self._queued >= self.queue_limit:
            stats.packets_queue_dropped += 1
            if spans is not None:
                spans.packet_event("queue_drop", self.name, pkt.packet_id)
            return

        if spans is not None:
            spans.link_begin(self.name, pkt.packet_id, size)
        sim = self.sim
        start = now = sim.now
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

    def _transmitted(self, pkt: IPPacket) -> None:
        """Packet finished serialising; apply impairments and propagate.

        Loss, ``down`` and ``loss_model`` are sampled here, at the end
        of serialisation and not in :meth:`send`: a flap or a burst that
        starts while the packet queues must still catch it, and span
        ``link_end`` times and the telemetry gauges show the difference.
        That is why a crossing is two events and not one.
        """
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


@dataclass
class DuplexLink:
    """A symmetric pair of :class:`Link` objects (forward / reverse)."""

    forward: Link
    reverse: Link

    @classmethod
    def create(
        cls,
        sim: Simulator,
        bandwidth: float,
        prop_delay: float,
        *,
        rng_forward: Optional[random.Random] = None,
        rng_reverse: Optional[random.Random] = None,
        name: str = "link",
        **impairments,
    ) -> "DuplexLink":
        fwd = Link(sim, bandwidth, prop_delay, rng=rng_forward,
                   name=f"{name}.fwd", **impairments)
        rev = Link(sim, bandwidth, prop_delay, rng=rng_reverse,
                   name=f"{name}.rev", **impairments)
        return cls(forward=fwd, reverse=rev)
