"""Links and timers push their own heap entries, and schedule as before.

``tests/reference_sim.py`` keeps the link that scheduled through
``Simulator.post``/``post_after`` and the timer that armed through
``Simulator.at``.  Two differential tests drive production and
reference on twin simulators:

* A random script -- packet sizes and send times, loss/corruption/
  re-ordering rates, a flap window, RTO re-arms and stops -- drives the
  production pair and ``PathLink`` (the same choice of crossing, in
  ``sim.post`` form) with the reference timer.  After every step both
  must have dispatched the same ``(now, seq, callback qualname)``
  sequence, delivered the same packets, and hold the same link
  counters and the same number of pending events.
* Sends and waits on an unwatched link -- random loss and re-order
  rates, a small queue limit -- drive the production link, which
  crosses in one event, and the reference ``Link``, which always
  crosses in two.  The deliveries and the dispatch order, times
  included, must match once the reference's ``Link._transmitted``
  entries are dropped, and the counters must match once both drained.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checksum import payload_checksum
from repro.net.packet import IPPacket, PROTO_TCP, TCPSegment
from repro.sim import Link, Simulator, SimulationError, Timer
from repro.sim.faults import schedule_link_flap

from tests import reference_sim


def _packet(size):
    data = bytes(size)
    segment = TCPSegment(src_port=1, dst_port=2, seq=0, ack=0,
                         flags=TCPSegment.ACK, window=100, data=data,
                         checksum=payload_checksum(data))
    return IPPacket(src="a", dst="b", proto=PROTO_TCP, payload=segment)


class _Twin:
    """One simulator with a link, an RTO-like timer and a dispatch log."""

    def __init__(self, link_class, timer_class, params):
        self.sim = Simulator()
        link_kwargs = dict(params["link"])
        seed = link_kwargs.pop("seed")
        self.link = link_class(self.sim, rng=random.Random(seed),
                               **link_kwargs)
        self.delivered = []
        self.link.connect(lambda pkt: self.delivered.append(
            (self.sim.now, pkt.wire_size, pkt.header_corrupt,
             pkt.payload.data)))
        # An expiry retransmits, as an RTO does: the timer's entries and
        # the link's draw from one seq counter.
        self.timer = timer_class(self.sim, lambda: self.link.send(
            _packet(params["rto_size"])))
        self.log = []
        if params["flap"] is not None:
            at, down_for = params["flap"]
            schedule_link_flap(self.sim, self.link, at, down_for)

    def advance(self, until):
        """Run to ``until`` one dispatch at a time, logging each."""
        sim = self.sim
        while True:
            live = [entry for entry in sim._heap
                    if entry[4] is None or not entry[4].cancelled]
            if not live:
                break
            time, seq, fn = min(live)[:3]
            if time > until:
                break
            self.log.append((time, seq, fn.__qualname__))
            sim.run(max_events=1)
            assert sim.now == time
        sim.run(until=until)

    def step(self, op):
        kind = op[0]
        if kind == "send":
            self.link.send(_packet(op[1]))
        elif kind == "wait":
            self.advance(self.sim.now + op[1])
        elif kind == "rearm":
            self.timer.start(op[1])
        else:
            self.timer.stop()

    def observed(self):
        # A pending expiry shows in the log when it fires: the closing
        # wait outlasts the longest rearm.
        return (self.sim.now, self.log, self.delivered, self.link.stats,
                self.sim.pending(), self.sim.events_processed,
                self.timer.armed)


_rate = st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.6])
_link_params = st.fixed_dictionaries({
    "bandwidth": st.sampled_from([2e4, 1e5, 1e6]),
    "prop_delay": st.sampled_from([0.0, 0.001, 0.004, 0.02]),
    "loss_rate": _rate,
    "corrupt_rate": _rate,
    "reorder_rate": _rate,
    "reorder_extra_delay": st.sampled_from([0.0, 0.005, 0.05]),
    "queue_limit": st.sampled_from([2, 6, 1000]),
    "seed": st.integers(0, 2**16),
})
_op = st.one_of(
    st.tuples(st.just("send"), st.integers(1, 1460)),
    st.tuples(st.just("wait"),
              st.floats(0.0, 0.05, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("rearm"),
              st.floats(0.0, 0.08, allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("stop")),
)
_params = st.fixed_dictionaries({
    "link": _link_params,
    "rto_size": st.integers(1, 1460),
    "flap": st.one_of(st.none(), st.tuples(
        st.floats(0.0, 0.1, allow_nan=False, allow_infinity=False),
        st.floats(0.001, 0.05, allow_nan=False, allow_infinity=False))),
})


@settings(max_examples=150, deadline=None)
@given(_params, st.lists(_op, min_size=1, max_size=40))
def test_inline_scheduling_matches_reference(params, script):
    change = _Twin(Link, Timer, params)
    reference = _Twin(reference_sim.PathLink, reference_sim.Timer, params)
    for op in script + [("wait", 1.0)]:
        change.step(op)
        reference.step(op)
        assert change.observed() == reference.observed(), op
    # The closing wait drained every link entry: nothing is queued.
    assert change.link._queued == 0


_one_event_params = st.fixed_dictionaries({
    "bandwidth": st.sampled_from([2e4, 1e5, 1e6]),
    "prop_delay": st.sampled_from([0.0, 0.001, 0.004, 0.02]),
    "loss_rate": _rate,
    "reorder_rate": _rate,
    "reorder_extra_delay": st.sampled_from([0.0, 0.005, 0.05]),
    "queue_limit": st.sampled_from([1, 2, 3, 6]),
    "seed": st.integers(0, 2**16),
})
_send_or_wait = st.one_of(
    st.tuples(st.just("send"), st.integers(1, 1460)),
    st.tuples(st.just("wait"),
              st.floats(0.0, 0.05, allow_nan=False, allow_infinity=False)),
)


def _without_transmitted(log):
    return [(time, name) for time, _seq, name in log
            if name != "Link._transmitted"]


@settings(max_examples=150, deadline=None)
@given(_one_event_params, st.lists(_send_or_wait, min_size=1, max_size=50))
def test_one_event_crossing_matches_two_event_reference(link, script):
    params = {"link": link, "rto_size": 1, "flap": None}
    change = _Twin(Link, Timer, params)
    reference = _Twin(reference_sim.Link, reference_sim.Timer, params)
    assert change.link._one_event
    for op in script + [("wait", 1.0)]:
        change.step(op)
        reference.step(op)
        assert change.delivered == reference.delivered, op
        assert (_without_transmitted(change.log)
                == _without_transmitted(reference.log)), op
        for counter in ("packets_offered", "packets_queue_dropped",
                        "bytes_offered"):
            assert (getattr(change.link.stats, counter)
                    == getattr(reference.link.stats, counter)), op
    assert change.link.stats == reference.link.stats
    assert change.sim.pending() == reference.sim.pending() == 0
    assert not any(name == "Link._transmitted" for _, _, name in change.log)


def test_inline_guards_still_refuse_a_bad_entry():
    """A link written to after construction still cannot poison the
    heap: the per-packet guards raise as post/post_after did, on both
    crossings.  A one-event link draws a packet's delay when it is
    offered, so its delay guard trips in ``send``."""
    for corrupt_rate in (0.0, 0.5):     # one event, then two
        sim = Simulator()
        link = Link(sim, 1000.0, 0.0, reorder_rate=1.0,
                    corrupt_rate=corrupt_rate)
        link.connect(lambda pkt: None)
        link.bandwidth = float("nan")
        with pytest.raises(SimulationError, match="past"):
            link.send(_packet(10))
        link = Link(sim, 1000.0, 0.0, reorder_rate=1.0,
                    corrupt_rate=corrupt_rate)
        link.connect(lambda pkt: None)
        link.prop_delay = -1.0
        if corrupt_rate:
            link.send(_packet(10))
            with pytest.raises(SimulationError, match="negative delay"):
                sim.run()
        else:
            with pytest.raises(SimulationError, match="negative delay"):
                link.send(_packet(10))
            assert sim.pending() == 0
    timer = Timer(Simulator(), lambda: None)
    timer.start(1.0)
    with pytest.raises(SimulationError, match="past"):
        timer.start(float("nan"))
    assert not timer.armed
