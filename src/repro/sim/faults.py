"""Deterministic fault injection.

Random loss rates (``Link(loss_rate=...)``) reproduce the paper's
sweeps, but the §IV correctness arguments are about *single, specific*
events — "a single occurrence of any such event (e.g., a simple packet
loss)".  This module scripts exact faults:

* :class:`FaultInjector` wraps a live :class:`~repro.sim.link.Link` and
  applies drop/corrupt/delay actions chosen by predicates;
* predicate builders select packets by offer index, by TCP stream
  offset (ISS-independent), by data-packet ordinal, or by control
  message kind (so control-plane loss — a heartbeat or resync request
  vanishing — is scriptable too);
* gateway-level fault actions (:func:`schedule_gateway_restart`,
  :func:`schedule_asymmetric_eviction`, :func:`schedule_memory_pressure`,
  :func:`schedule_clock_skew`) reproduce cache-level divergence: a
  decoder restarting with a cold cache, one side evicting entries the
  other still references, an eviction storm under a squeezed byte
  budget, or a drifting heartbeat clock;
* link-window actions (:func:`schedule_link_flap`,
  :func:`schedule_partition`, :func:`schedule_bursty_loss`,
  :func:`schedule_loss_window`, :func:`control_blackout`) script the
  sustained adverse regimes the chaos campaigns compose — handover
  flaps, Gilbert-Elliott loss bursts, a window of extra uniform loss,
  a blacked-out control plane.  Each records its changes on the
  link's timeline (:meth:`~repro.sim.link.Link.write_at`) when it is
  called, so the fault catches every packet whose serialisation ends
  inside its window, one already queued when it starts included;
* the injection table (:data:`INJECTION_KINDS`,
  :func:`check_injection`, :func:`arm_injection`) names every one of
  these faults as a dict with a ``kind`` tag — the one vocabulary a
  fuzz case's ``fault_events`` (:mod:`repro.verify.fuzz`) and a chaos
  phase's ``injections`` (:mod:`repro.chaos`) are written in.

Used by the integration tests, the stall-anatomy example, the fuzzer,
the chaos campaign engine, and available to library users for their
own what-if experiments.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .engine import Event, Simulator
from .link import GilbertElliottLoss, Link

if TYPE_CHECKING:  # type-only: the sim layer stays import-free of repro.net
    from ..net.packet import IPPacket

    Predicate = Callable[["IPPacket", int], bool]
else:
    Predicate = Callable


def _control_kind(pkt: "IPPacket") -> Optional[str]:
    """The ``kind`` tag of a gateway control message, else ``None``.

    Control payloads are recognised duck-typed — they are the only
    transport payloads carrying a ``kind`` attribute — so the sim layer
    never has to import :mod:`repro.net.packet` at runtime.
    """
    return getattr(pkt.payload, "kind", None)


def match_nth_data(*ordinals: int) -> Predicate:
    """Match the n-th, m-th, ... TCP data segments offered (1-based)."""
    wanted = set(ordinals)
    counter = {"data": 0}

    def predicate(pkt: IPPacket, index: int) -> bool:
        segment = pkt.tcp
        if segment is None or not segment.data:
            return False
        counter["data"] += 1
        return counter["data"] in wanted

    return predicate


def match_every_nth_data(every: int) -> Predicate:
    """Match every ``every``-th TCP data segment *evaluated*.

    Stateful like :func:`match_nth_data` — compose after a window guard
    via :func:`all_of` so the counter only advances inside the window.
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    counter = {"seen": 0}

    def predicate(pkt: "IPPacket", index: int) -> bool:
        segment = pkt.tcp
        if segment is None or not segment.data:
            return False
        counter["seen"] += 1
        return counter["seen"] % every == 0

    return predicate


def match_control(*kinds: str) -> Predicate:
    """Match gateway control messages (proto 253), optionally by kind.

    With no arguments every control message matches; with arguments
    only messages whose ``kind`` tag is listed (e.g. ``"heartbeat"``,
    ``"cache_resync"``).
    """
    wanted = set(kinds)

    def predicate(pkt: "IPPacket", index: int) -> bool:
        kind = _control_kind(pkt)
        if kind is None:
            return False
        return not wanted or kind in wanted

    return predicate


def match_nth_control(kind: str, *ordinals: int) -> Predicate:
    """Match the n-th, m-th, ... control messages of ``kind`` (1-based)."""
    wanted = set(ordinals)
    counter = {"seen": 0}

    def predicate(pkt: "IPPacket", index: int) -> bool:
        if _control_kind(pkt) != kind:
            return False
        counter["seen"] += 1
        return counter["seen"] in wanted

    return predicate


def match_time_window(clock: Callable[[], float], start: float,
                      end: float) -> Predicate:
    """Match every packet offered while ``start <= clock() < end``.

    ``clock`` is usually ``lambda: sim.now``; combined with a content
    predicate via :func:`all_of` this scripts phase-windowed faults
    (e.g. a control-channel blackout between two campaign phases).
    """
    if end < start:
        raise ValueError(f"window ends before it starts: [{start}, {end})")
    return lambda pkt, index: start <= clock() < end


def all_of(*predicates: Predicate) -> Predicate:
    """Conjunction of predicates (evaluated left to right, short-circuit).

    Stateful predicates (``match_nth_*``) only advance their counters
    when evaluated, so put them *after* any cheap window/kind guards.
    """
    if not predicates:
        raise ValueError("all_of needs at least one predicate")

    def predicate(pkt: "IPPacket", index: int) -> bool:
        for inner in predicates:
            if not inner(pkt, index):
                return False
        return True

    return predicate


@dataclass
class FaultLog:
    """What the injector actually did."""

    dropped: List[int] = field(default_factory=list)
    corrupted: List[int] = field(default_factory=list)
    delayed: List[int] = field(default_factory=list)
    reordered: List[int] = field(default_factory=list)
    duplicated: List[int] = field(default_factory=list)

    @property
    def events(self) -> int:
        return (len(self.dropped) + len(self.corrupted) + len(self.delayed)
                + len(self.reordered) + len(self.duplicated))


class FaultInjector:
    """Scripted impairments in front of a link.

    Wraps ``link.send``: each offered packet is tested against the
    registered predicates in order; the first matching action is
    applied (``drop`` removes the packet, ``corrupt`` XORs the first 16
    payload bytes with 0xFF so the end-to-end checksum fails, and
    ``delay`` holds the packet back before re-offering it to the link).
    """

    def __init__(self, link):
        self.link = link
        self.log = FaultLog()
        self._offer_index = 0
        self._rules: List[Tuple[str, Predicate, Optional[float]]] = []
        # The link's class method, or the previous injector's `_send`
        # when injectors are stacked: what an unmatched packet goes on to.
        self._original_send = link.send
        link.send = self._send

    def drop_when(self, predicate: Predicate) -> "FaultInjector":
        self._rules.append(("drop", predicate, None))
        return self

    def corrupt_when(self, predicate: Predicate) -> "FaultInjector":
        self._rules.append(("corrupt", predicate, None))
        return self

    def delay_when(self, predicate: Predicate, delay: float) -> "FaultInjector":
        """Hold matching packets for ``delay`` seconds, then re-offer.

        The packet re-enters the link behind anything sent in the
        meantime — the deterministic version of the link's random
        re-ordering impairment.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._rules.append(("delay", predicate, delay))
        return self

    def reorder_when(self, predicate: Predicate,
                     extra_delay: float = 0.05) -> "FaultInjector":
        """Re-order matching packets behind later traffic.

        Mechanically a hold-and-re-offer like :meth:`delay_when`, but
        logged separately (``log.reordered``) because campaigns reason
        about re-ordering and latency as distinct impairments.
        """
        if extra_delay <= 0:
            raise ValueError(f"non-positive reorder delay: {extra_delay}")
        self._rules.append(("reorder", predicate, extra_delay))
        return self

    def duplicate_when(self, predicate: Predicate,
                       delay: float = 0.0) -> "FaultInjector":
        """Deliver matching packets twice (original plus a deep copy).

        The copy is offered ``delay`` seconds later (0 = immediately
        behind the original).  A deep copy, not an alias: decoders
        mutate payload bytes in place, so the two wire copies must not
        share buffers.
        """
        if delay < 0:
            raise ValueError(f"negative duplicate delay: {delay}")
        self._rules.append(("duplicate", predicate, delay))
        return self

    # ------------------------------------------------------------------

    def _send(self, pkt: IPPacket) -> None:
        index = self._offer_index
        self._offer_index += 1
        spans = getattr(self.link, "spans", None)
        for action, predicate, arg in self._rules:
            if not predicate(pkt, index):
                continue
            if spans is not None:
                # Traced packets record which injected fault hit them.
                spans.packet_event("fault_" + action, self.link.name,
                                   pkt.packet_id, action)
            if action == "drop":
                self.log.dropped.append(index)
                return
            if action == "delay":
                self.log.delayed.append(index)
                self.link.sim.after(arg, self._original_send, pkt)
                return
            if action == "reorder":
                self.log.reordered.append(index)
                self.link.sim.after(arg, self._original_send, pkt)
                return
            if action == "duplicate":
                self.log.duplicated.append(index)
                duplicate = copy.deepcopy(pkt)
                # Scheduled even at delay 0: the event fires after this
                # call returns, so the copy lands behind the original.
                self.link.sim.after(arg, self._original_send, duplicate)
                break
            if action == "corrupt":
                self.log.corrupted.append(index)
                payload = getattr(pkt.payload, "data", b"")
                if payload:
                    damaged = bytearray(payload)
                    span = min(16, len(damaged))
                    for position in range(span):
                        damaged[position] ^= 0xFF
                    pkt.payload.data = bytes(damaged)
                    pkt.reread_size()
                break
        self._original_send(pkt)


# -- gateway-level fault actions ------------------------------------------


@dataclass
class GatewayFaultLog:
    """What the scheduled gateway faults actually did."""

    crashes: List[float] = field(default_factory=list)       # crash times
    restarts: List[float] = field(default_factory=list)      # recovery times
    evictions: List[Tuple[float, int]] = field(default_factory=list)
    #: (time, evictions forced) per memory-pressure squeeze.
    pressure: List[Tuple[float, int]] = field(default_factory=list)
    #: (time, skew factor) per clock-skew change (1.0 = restored).
    skews: List[Tuple[float, float]] = field(default_factory=list)


def schedule_gateway_restart(sim: Simulator, gateway, at: float,
                             downtime: float = 0.0,
                             log: Optional[GatewayFaultLog] = None) -> Event:
    """Crash ``gateway`` at ``at`` and restart it ``downtime`` later.

    While down the gateway drops every offered packet (data *and*
    control); it comes back with a wiped cache and its epoch reset —
    the cold-start divergence the resilience layer exists to repair.

    Crash/restore are idempotent: each crash stamps the gateway with a
    fresh token and the matching restore fires only while that token is
    current *and* the gateway is still down.  An overlapping second
    crash therefore supersedes the first restore (the gateway stays
    down for the full second window), and a restore landing after the
    gateway already came back — or after the fault schedule was torn
    down — never re-runs ``restart()`` against live state.
    """
    if downtime < 0:
        raise ValueError(f"negative downtime: {downtime}")

    def crash() -> None:
        token = getattr(gateway, "_crash_token", 0) + 1
        gateway._crash_token = token
        gateway.fail()
        spans = getattr(gateway, "spans", None)
        if spans is not None:
            spans.fault_begin("gateway_down")
        if log is not None:
            log.crashes.append(sim.now)
        sim.after(downtime, restore, token)

    def restore(token: int) -> None:
        # Every crash schedules exactly one restore, so ending the
        # fault window here (even for a superseded restore) keeps the
        # begin/end counts balanced under overlapping crash windows.
        spans = getattr(gateway, "spans", None)
        if spans is not None:
            spans.fault_end("gateway_down")
        if getattr(gateway, "_crash_token", 0) != token or not gateway.down:
            return
        gateway.restart()
        if log is not None:
            log.restarts.append(sim.now)

    return sim.at(at, crash)


def schedule_asymmetric_eviction(sim: Simulator, gateway, at: float,
                                 fraction: float = 0.5,
                                 log: Optional[GatewayFaultLog] = None) -> Event:
    """Evict the oldest ``fraction`` of ``gateway``'s cache at ``at``.

    One-sided eviction leaves the peer referencing entries this side no
    longer holds — undecodable on a decoder, stale-source encodings on
    an encoder — without any packet ever being lost.
    """

    def evict() -> None:
        evicted = gateway.cache.evict_fraction(fraction)
        if log is not None:
            log.evictions.append((sim.now, evicted))

    return sim.at(at, evict)


def schedule_memory_pressure(sim: Simulator, gateway, at: float,
                             fraction: float = 0.25,
                             duration: Optional[float] = None,
                             log: Optional[GatewayFaultLog] = None
                             ) -> List[Event]:
    """Squeeze ``gateway``'s cache byte budget at ``at``.

    The budget is re-capped to ``fraction`` of the bytes *in use* at
    fire time, forcing an immediate eviction storm (entries go; only
    the budget comes back).  With ``duration`` the original budget is
    restored that much later — the cache may refill, but what the storm
    evicted stays evicted, which is exactly the asymmetric divergence
    the watchdog must catch.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if duration is not None and duration <= 0:
        raise ValueError(f"non-positive duration: {duration}")
    events: List[Event] = []

    def squeeze() -> None:
        store = gateway.cache.store
        original = store.byte_budget
        budget = max(1, int(store.bytes_used * fraction))
        evicted = gateway.cache.set_byte_budget(budget)
        if log is not None:
            log.pressure.append((sim.now, evicted))
        if duration is not None:
            events.append(sim.after(duration, restore, original))

    def restore(original: int) -> None:
        gateway.cache.set_byte_budget(original)

    events.append(sim.at(at, squeeze))
    return events


def schedule_clock_skew(sim: Simulator, gateway, at: float, factor: float,
                        duration: Optional[float] = None,
                        log: Optional[GatewayFaultLog] = None
                        ) -> List[Event]:
    """Skew the encoder's resilience heartbeat clock by ``factor``.

    ``factor > 1`` is a slow clock: heartbeats go out late, so the
    peer's acks thin out and the encoder's own timeout check can
    false-trip into degraded mode — the classic drifting-middlebox
    failure.  Requires the gateway to run
    :class:`~repro.gateway.resilience.EncoderResilience`; restored to
    1.0 after ``duration`` when given.
    """
    if factor <= 0:
        raise ValueError(f"skew factor must be positive, got {factor}")
    if duration is not None and duration <= 0:
        raise ValueError(f"non-positive duration: {duration}")
    events: List[Event] = []

    def apply(value: float) -> None:
        resilience = gateway.resilience
        if resilience is None or not hasattr(resilience, "clock_skew"):
            raise RuntimeError(
                f"gateway {gateway.name!r} has no heartbeat clock to skew "
                f"(encoder-side resilience layer not armed)")
        resilience.clock_skew = value
        if log is not None:
            log.skews.append((sim.now, value))

    events.append(sim.at(at, apply, factor))
    if duration is not None:
        events.append(sim.at(at + duration, apply, 1.0))
    return events


# -- link-level fault windows ----------------------------------------------


def schedule_link_flap(sim: Simulator, link: Link, at: float,
                       down_for: float, flaps: int = 1,
                       period: Optional[float] = None) -> List[Event]:
    """Take ``link`` administratively down for ``down_for`` seconds,
    ``flaps`` times, ``period`` seconds apart (a handover storm).

    While down every packet whose serialisation ends is lost — data and
    control alike — which is how a vanished radio segment behaves, as
    opposed to the targeted drops of a :class:`FaultInjector`.
    """
    if down_for <= 0:
        raise ValueError(f"non-positive down_for: {down_for}")
    if flaps < 1:
        raise ValueError(f"flaps must be >= 1, got {flaps}")
    if flaps > 1 and (period is None or period <= down_for):
        raise ValueError("flaps > 1 needs period > down_for")

    def down() -> None:
        spans = getattr(link, "spans", None)
        if spans is not None:
            spans.fault_begin("link_flap")

    def up() -> None:
        spans = getattr(link, "spans", None)
        if spans is not None:
            spans.fault_end("link_flap")

    events: List[Event] = []
    for index in range(flaps):
        start = at + index * (period or 0.0)
        link.write_at(start, "down", True)
        link.write_at(start + down_for, "down", False)
        events.append(sim.at(start, down))
        events.append(sim.at(start + down_for, up))
    return events


def schedule_partition(sim: Simulator, forward: Link, reverse: Link,
                       at: float, duration: float) -> List[Event]:
    """Partition both directions of a segment for ``duration`` seconds."""
    return (schedule_link_flap(sim, forward, at, duration)
            + schedule_link_flap(sim, reverse, at, duration))


def schedule_bursty_loss(sim: Simulator, link: Link, at: float, until: float,
                         rng: random.Random,
                         **gilbert_kwargs) -> GilbertElliottLoss:
    """Attach a Gilbert-Elliott loss process to ``link`` for a window.

    The model replaces the link's uniform ``loss_rate`` between ``at``
    and ``until`` (see :class:`~repro.sim.link.GilbertElliottLoss`);
    ``rng`` should be a named :class:`~repro.sim.rng.RngRegistry`
    stream so the burst pattern replays bit-identically.  Returns the
    model so callers can inspect ``transitions`` / ``losses``.
    """
    if until <= at:
        raise ValueError(f"window ends before it starts: [{at}, {until})")
    model = GilbertElliottLoss(rng, **gilbert_kwargs)
    link.write_at(at, "loss_model", model)
    # Only if this model is still the one attached: a later window's
    # model outlives this window's end.
    link.write_at(until, "loss_model", None, replacing=model)

    def attach() -> None:
        spans = getattr(link, "spans", None)
        if spans is not None:
            spans.fault_begin("bursty_loss")

    def detach() -> None:
        spans = getattr(link, "spans", None)
        if spans is not None:
            spans.fault_end("bursty_loss")

    sim.at(at, attach)
    sim.at(until, detach)
    return model


def schedule_loss_window(sim: Simulator, link: Link, at: float,
                         rate: float, until: Optional[float] = None) -> None:
    """Set ``link``'s uniform loss rate to ``rate`` from ``at``, and
    restore the rate it has now at ``until`` when given.

    ``rate`` is checked the way :class:`~repro.sim.link.Link` checks
    its constructor rates, so a NaN or out-of-range rate is refused
    here rather than read as 0 % or 100 % loss at run time.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"loss rate must be in [0, 1], got {rate}")
    if until is not None and not until >= at:
        raise ValueError(f"window ends before it starts: [{at}, {until})")
    original = link.loss_rate
    link.write_at(at, "loss_rate", rate)
    if until is not None:
        link.write_at(until, "loss_rate", original)


def control_blackout(injectors: List[FaultInjector], start: float,
                     end: float, *kinds: str) -> None:
    """Drop every gateway control message in a time window.

    Arms a windowed drop rule on each injector (one per direction:
    heartbeats ride forward, resync requests ride back).  With
    ``kinds`` only those control kinds are blacked out.  Data packets
    keep flowing — the failure mode where the control plane dies while
    the data plane limps on, which is what exhausts the decoder's
    resync retries.
    """
    for injector in injectors:
        sim = injector.link.sim
        injector.drop_when(all_of(
            match_time_window(lambda s=sim: s.now, start, end),
            match_control(*kinds)))


# -- the injection table ---------------------------------------------------

#: Every injection kind -> (keys it must carry, keys it may carry).
#: :func:`arm_injection` documents what each kind does.
INJECTION_KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "drop_data": (("nth",), ()),
    "corrupt_data": (("nth",), ()),
    "delay_data": (("nth", "delay"), ()),
    "drop_control": (("ctrl", "nth"), ()),
    "reorder_data": (("every",), ("extra_delay",)),
    "dup_data": (("every",), ("delay",)),
    "loss": (("rate",), ("link",)),
    "bursty_loss": ((), ("link", "p_good_bad", "p_bad_good", "loss_good",
                         "loss_bad", "start_bad")),
    "link_flap": (("down_for",), ("link", "offset", "flaps", "period")),
    "partition": (("duration",), ("offset",)),
    "control_blackout": ((), ("kinds",)),
    "restart": (("side",), ("offset", "downtime")),
    "evict": (("side",), ("offset", "fraction")),
    "memory_pressure": (("side",), ("offset", "fraction", "duration")),
    "clock_skew": (("factor",), ("offset", "duration")),
}

#: Kinds that fault a gateway or its control plane: skipped on a
#: testbed without gateways (the no-DRE baseline).
GATEWAY_KINDS = frozenset({
    "drop_control", "control_blackout", "restart", "evict",
    "memory_pressure", "clock_skew",
})


def check_injection(injection: Dict[str, Any], where: str) -> None:
    """Refuse a malformed injection when it loads, not mid-run.

    Raises ``ValueError`` prefixed with ``where`` for an unknown kind,
    a missing required key, a key the kind does not take, a ``side``
    other than encoder/decoder, a ``link`` other than forward/reverse,
    or a ``loss`` rate that is not a number in [0, 1].
    """
    kind = injection.get("kind")
    if kind not in INJECTION_KINDS:
        raise ValueError(f"{where}: unknown injection kind {kind!r}")
    if kind == "loss":
        # Refused the way Link refuses its constructor rates: a NaN or
        # out-of-range rate would otherwise run as 0 % or 100 % loss.
        rate = injection.get("rate")
        if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
            raise ValueError(f"{where}: loss rate must be a number in "
                             f"[0, 1], got {rate!r}")
    required, optional = INJECTION_KINDS[kind]
    for key in required:
        if key not in injection:
            raise ValueError(f"{where}: {kind} injection needs {key!r}")
    for key in injection:
        if key != "kind" and key not in required and key not in optional:
            raise ValueError(f"{where}: {kind} injection takes no {key!r}")
    if injection.get("side", "encoder") not in ("encoder", "decoder"):
        raise ValueError(f"{where}: unknown gateway side "
                         f"{injection['side']!r} (encoder|decoder)")
    if injection.get("link", "forward") not in ("forward", "reverse"):
        raise ValueError(f"{where}: unknown link {injection['link']!r} "
                         f"(forward|reverse)")


@dataclass
class ArmedFaults:
    """Handles onto everything the table armed on one testbed."""

    #: One :class:`FaultInjector` per faulted direction, made on first use.
    injectors: Dict[str, FaultInjector] = field(default_factory=dict)
    gateway_log: GatewayFaultLog = field(default_factory=GatewayFaultLog)
    bursty_models: List[GilbertElliottLoss] = field(default_factory=list)

    def injector(self, testbed, direction: str) -> FaultInjector:
        if direction not in self.injectors:
            self.injectors[direction] = FaultInjector(
                _bottleneck(testbed, direction))
        return self.injectors[direction]


def _bottleneck(testbed, direction: str) -> Link:
    return (testbed.bottleneck_forward if direction == "forward"
            else testbed.bottleneck_reverse)


def arm_injection(testbed, injection: Dict[str, Any],
                  window: Tuple[float, float], stream: random.Random,
                  armed: ArmedFaults) -> bool:
    """Arm one injection onto ``testbed`` inside ``window``.

    ``testbed`` is duck-typed: ``sim``, ``bottleneck_forward``,
    ``bottleneck_reverse`` and ``gateways`` (``None`` without DRE, when
    a :data:`GATEWAY_KINDS` injection is skipped and ``False``
    returned).  ``stream`` is the named rng stream a ``bursty_loss``
    draws from.  A chaos phase arms its injections with the window set
    to the phase; a fuzz case arms its events in one window starting at
    0.  Times are seconds: ``offset`` is relative to the window start
    (default 0), and windowed kinds act for the whole window.

    ``drop_data`` / ``corrupt_data`` / ``delay_data``
        Drop / corrupt / hold back by ``delay`` seconds the ``nth``
        data segment offered forward in the window.
    ``drop_control``
        Drop the ``nth`` control message of kind ``ctrl`` in the
        window, counted in each direction.
    ``reorder_data`` / ``dup_data``
        Re-order (by ``extra_delay``, default 0.05) / duplicate (a
        ``delay`` later, default 0) every ``every``-th data segment
        offered forward in the window.
    ``loss``
        Set ``link``'s uniform loss rate to ``rate`` (a number in
        [0, 1]) for the window, restoring the scenario rate afterwards.
    ``bursty_loss``
        Gilbert-Elliott loss on ``link`` for the window; every other
        key goes to :class:`~repro.sim.link.GilbertElliottLoss`.
    ``link_flap``
        ``link`` goes administratively down ``down_for`` seconds at
        ``offset``, ``flaps`` times, ``period`` apart.
    ``partition``
        Both directions down for ``duration`` starting at ``offset``.
    ``control_blackout``
        Drop every gateway control message (optionally only ``kinds``)
        in both directions for the window.
    ``restart``
        Crash the ``side`` gateway at ``offset``, restart it
        ``downtime`` (default 0) later.
    ``evict``
        Evict ``fraction`` (default 0.5) of the ``side`` cache at
        ``offset``.
    ``memory_pressure``
        Squeeze the ``side`` cache byte budget to ``fraction`` (default
        0.25) of its in-use bytes at ``offset``, restoring the budget
        after ``duration`` when given.
    ``clock_skew``
        Stretch the encoder's heartbeat clock by ``factor`` at
        ``offset``, restored after ``duration`` (default: at the
        window end).

    ``link`` is "forward" (the default) or "reverse"; ``side`` is
    "encoder" or "decoder".
    """
    kind = injection["kind"]
    if kind in GATEWAY_KINDS and testbed.gateways is None:
        return False
    sim = testbed.sim
    start, end = window
    at = start + injection.get("offset", 0.0)
    link = _bottleneck(testbed, injection.get("link", "forward"))

    def in_window() -> Predicate:
        return match_time_window(lambda: sim.now, start, end)

    def gateway():
        return getattr(testbed.gateways, injection["side"])

    if kind == "drop_data":
        armed.injector(testbed, "forward").drop_when(
            all_of(in_window(), match_nth_data(injection["nth"])))
    elif kind == "corrupt_data":
        armed.injector(testbed, "forward").corrupt_when(
            all_of(in_window(), match_nth_data(injection["nth"])))
    elif kind == "delay_data":
        armed.injector(testbed, "forward").delay_when(
            all_of(in_window(), match_nth_data(injection["nth"])),
            injection["delay"])
    elif kind == "drop_control":
        # Heartbeats ride forward and resync requests back: each
        # direction counts its own ordinals.
        for direction in ("forward", "reverse"):
            armed.injector(testbed, direction).drop_when(all_of(
                in_window(),
                match_nth_control(injection["ctrl"], injection["nth"])))
    elif kind == "reorder_data":
        armed.injector(testbed, "forward").reorder_when(
            all_of(in_window(), match_every_nth_data(injection["every"])),
            extra_delay=injection.get("extra_delay", 0.05))
    elif kind == "dup_data":
        armed.injector(testbed, "forward").duplicate_when(
            all_of(in_window(), match_every_nth_data(injection["every"])),
            delay=injection.get("delay", 0.0))
    elif kind == "loss":
        schedule_loss_window(sim, link, start, injection["rate"], until=end)
    elif kind == "bursty_loss":
        params = {k: v for k, v in injection.items()
                  if k not in ("kind", "link")}
        armed.bursty_models.append(
            schedule_bursty_loss(sim, link, start, end, stream, **params))
    elif kind == "link_flap":
        schedule_link_flap(sim, link, at, injection["down_for"],
                           flaps=injection.get("flaps", 1),
                           period=injection.get("period"))
    elif kind == "partition":
        schedule_partition(sim, testbed.bottleneck_forward,
                           testbed.bottleneck_reverse, at,
                           injection["duration"])
    elif kind == "control_blackout":
        control_blackout([armed.injector(testbed, "forward"),
                          armed.injector(testbed, "reverse")],
                         start, end, *injection.get("kinds", ()))
    elif kind == "restart":
        schedule_gateway_restart(sim, gateway(), at,
                                 downtime=injection.get("downtime", 0.0),
                                 log=armed.gateway_log)
    elif kind == "evict":
        schedule_asymmetric_eviction(sim, gateway(), at,
                                     fraction=injection.get("fraction", 0.5),
                                     log=armed.gateway_log)
    elif kind == "memory_pressure":
        schedule_memory_pressure(sim, gateway(), at,
                                 fraction=injection.get("fraction", 0.25),
                                 duration=injection.get("duration"),
                                 log=armed.gateway_log)
    elif kind == "clock_skew":
        schedule_clock_skew(sim, testbed.gateways.encoder, at,
                            injection["factor"],
                            duration=injection.get("duration", end - at),
                            log=armed.gateway_log)
    else:  # pragma: no cover - check_injection refuses unknown kinds
        raise ValueError(f"unknown injection kind {kind!r}")
    return True
