"""Links and timers push their own heap entries, and schedule as before.

``tests/reference_sim.py`` keeps the link that crossed in two events,
scheduling through ``Simulator.post``/``post_after``, and the timer
that armed through ``Simulator.at``.  Two differential tests drive
production and reference on twin simulators:

* A random script -- packet sizes and send times, loss/corruption/
  re-ordering rates, fault windows, RTO re-arms and stops -- drives the
  production link with the production timer on one twin and with the
  reference timer on the other.  After every step both must have
  dispatched the same ``(now, seq, callback qualname)`` sequence,
  delivered the same packets, and hold the same link counters and the
  same number of pending events.
* Sends and waits on a link with random loss, corruption and re-order
  rates, a small queue limit and scheduled flap, loss-rate and
  Gilbert-Elliott windows (overlapping ones among them) drive the
  production link, which crosses in one event, and the reference
  ``Link``, which crosses in two.  The deliveries, the dispatch order,
  times included, once the reference's ``Link._transmitted`` entries
  are dropped, and ``settled()`` must match after every step, and the
  counters and the loss models' draws once both drained.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checksum import payload_checksum
from repro.net.packet import IPPacket, PROTO_TCP, TCPSegment
from repro.sim import Link, Simulator, SimulationError, Timer
from repro.sim.faults import (schedule_bursty_loss, schedule_link_flap,
                              schedule_loss_window)

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
        self.models = []
        for kind, at, length, arg in params["windows"]:
            if kind == "flap":
                schedule_link_flap(self.sim, self.link, at, length)
            elif kind == "loss":
                schedule_loss_window(self.sim, self.link, at, arg,
                                     until=at + length)
            else:
                seed, loss_bad, start_bad = arg
                self.models.append(schedule_bursty_loss(
                    self.sim, self.link, at, at + length,
                    random.Random(seed), p_good_bad=0.3, p_bad_good=0.3,
                    loss_bad=loss_bad, start_bad=start_bad))

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
_window = st.one_of(
    st.tuples(st.just("flap"), st.floats(0.0, 0.1), st.floats(0.001, 0.05),
              st.none()),
    st.tuples(st.just("loss"), st.floats(0.0, 0.1), st.floats(0.0, 0.05),
              _rate),
    st.tuples(st.just("bursty"), st.floats(0.0, 0.1),
              st.floats(0.001, 0.05),
              st.tuples(st.integers(0, 2**16), st.sampled_from([0.3, 1.0]),
                        st.booleans())),
)
_params = st.fixed_dictionaries({
    "link": _link_params,
    "rto_size": st.integers(1, 1460),
    "windows": st.lists(_window, max_size=2),
})


@settings(max_examples=150, deadline=None)
@given(_params, st.lists(_op, min_size=1, max_size=40))
def test_inline_scheduling_matches_reference(params, script):
    change = _Twin(Link, Timer, params)
    reference = _Twin(Link, reference_sim.Timer, params)
    for op in script + [("wait", 1.0)]:
        change.step(op)
        reference.step(op)
        assert change.observed() == reference.observed(), op


_one_event_params = st.fixed_dictionaries({
    "bandwidth": st.sampled_from([2e4, 1e5, 1e6]),
    "prop_delay": st.sampled_from([0.0, 0.001, 0.004, 0.02]),
    "loss_rate": _rate,
    "corrupt_rate": _rate,
    "reorder_rate": _rate,
    "reorder_extra_delay": st.sampled_from([0.0, 0.005, 0.05]),
    "queue_limit": st.sampled_from([1, 2, 3, 6, 1000]),
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
@given(_one_event_params, st.lists(_window, max_size=3),
       st.lists(_send_or_wait, min_size=1, max_size=50))
def test_one_event_crossing_matches_two_event_reference(link, windows,
                                                        script):
    params = {"link": link, "rto_size": 1, "windows": windows}
    change = _Twin(Link, Timer, params)
    reference = _Twin(reference_sim.Link, reference_sim.Timer, params)
    # The closing wait outlasts every window and drains the queue.
    for op in script + [("wait", 5.0)]:
        change.step(op)
        reference.step(op)
        assert change.delivered == reference.delivered, op
        assert (_without_transmitted(change.log)
                == _without_transmitted(reference.log)), op
        assert change.link.settled() == reference.link.settled(), op
        for counter in ("packets_offered", "packets_queue_dropped",
                        "bytes_offered"):
            assert (getattr(change.link.stats, counter)
                    == getattr(reference.link.stats, counter)), op
    assert change.link.stats == reference.link.stats
    assert ([(m.losses, m.transitions, m.bad) for m in change.models]
            == [(m.losses, m.transitions, m.bad) for m in reference.models])
    assert change.sim.pending() == reference.sim.pending() == 0
    assert not any(name == "Link._transmitted" for _, _, name in change.log)


def test_inline_guards_still_refuse_a_bad_entry():
    """A link written to after construction still cannot poison the
    heap: the per-packet guards raise as post/post_after did.  A link
    draws a packet's delay when it is offered, so its delay guard trips
    in ``send``."""
    for corrupt_rate in (0.0, 0.5):
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
        with pytest.raises(SimulationError, match="negative delay"):
            link.send(_packet(10))
        assert sim.pending() == 0
    timer = Timer(Simulator(), lambda: None)
    timer.start(1.0)
    with pytest.raises(SimulationError, match="past"):
        timer.start(float("nan"))
    assert not timer.armed
