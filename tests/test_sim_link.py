"""Unit tests for the impaired link model."""

import random

import pytest

from repro.net.packet import IPPacket, PROTO_TCP, TCPSegment
from repro.core.checksum import payload_checksum
from repro.sim import Link, Simulator


def make_packet(size_payload: int = 1000) -> IPPacket:
    data = bytes(size_payload)
    segment = TCPSegment(src_port=1, dst_port=2, seq=0, ack=0,
                         flags=TCPSegment.ACK, window=100, data=data,
                         checksum=payload_checksum(data))
    return IPPacket(src="a", dst="b", proto=PROTO_TCP, payload=segment)


def test_serialisation_and_propagation_delay():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0, prop_delay=0.5)
    arrivals = []
    link.connect(lambda pkt: arrivals.append(sim.now))
    pkt = make_packet(1000)   # wire size 1040 -> 1.04 s serialisation
    link.send(pkt)
    sim.run()
    assert arrivals == [pytest.approx(pkt.wire_size / 1000.0 + 0.5)]


def test_back_to_back_packets_queue_fifo():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0, prop_delay=0.0)
    arrivals = []
    link.connect(lambda pkt: arrivals.append((sim.now, pkt.packet_id)))
    first, second = make_packet(460), make_packet(460)
    link.send(first)
    link.send(second)
    sim.run()
    assert [pid for _, pid in arrivals] == [first.packet_id, second.packet_id]
    tx = first.wire_size / 1000.0
    assert arrivals[0][0] == pytest.approx(tx)
    assert arrivals[1][0] == pytest.approx(2 * tx)


def test_loss_rate_statistics():
    sim = Simulator()
    link = Link(sim, bandwidth=1e9, prop_delay=0.0, loss_rate=0.3,
                rng=random.Random(1), queue_limit=None)
    delivered = []
    link.connect(delivered.append)
    n = 2000
    for _ in range(n):
        link.send(make_packet(100))
    sim.run()
    observed = 1 - len(delivered) / n
    assert 0.25 < observed < 0.35
    assert link.stats.packets_lost == n - len(delivered)


def test_zero_loss_delivers_everything():
    sim = Simulator()
    link = Link(sim, bandwidth=1e9, prop_delay=0.0, queue_limit=None)
    delivered = []
    link.connect(delivered.append)
    for _ in range(500):
        link.send(make_packet(100))
    sim.run()
    assert len(delivered) == 500


def test_corruption_flips_payload_or_header():
    sim = Simulator()
    link = Link(sim, bandwidth=1e9, prop_delay=0.0, corrupt_rate=1.0,
                rng=random.Random(3), queue_limit=None)
    received = []
    link.connect(received.append)
    for _ in range(100):
        link.send(make_packet(500))
    sim.run()
    damaged = sum(
        1 for pkt in received
        if pkt.header_corrupt
        or payload_checksum(pkt.payload.data) != pkt.payload.checksum)
    assert damaged == len(received) == 100


def test_reordering_changes_arrival_order():
    sim = Simulator()
    link = Link(sim, bandwidth=1e9, prop_delay=0.001, reorder_rate=0.5,
                reorder_extra_delay=0.5, rng=random.Random(5),
                queue_limit=None)
    order = []
    link.connect(lambda pkt: order.append(pkt.packet_id))
    packets = [make_packet(100) for _ in range(50)]
    for pkt in packets:
        link.send(pkt)
    sim.run()
    assert len(order) == 50
    assert order != [pkt.packet_id for pkt in packets]
    assert link.stats.packets_reordered > 0


def test_queue_limit_tail_drops():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0, prop_delay=0.0, queue_limit=5)
    delivered = []
    link.connect(delivered.append)
    for _ in range(20):
        link.send(make_packet(1000))
    sim.run()
    assert len(delivered) == 5
    assert link.stats.packets_queue_dropped == 15


def test_stats_byte_accounting():
    sim = Simulator()
    link = Link(sim, bandwidth=1e9, prop_delay=0.0, queue_limit=None)
    link.connect(lambda pkt: None)
    pkt = make_packet(700)
    link.send(pkt)
    sim.run()
    assert link.stats.bytes_offered == pkt.wire_size
    assert link.stats.bytes_delivered == pkt.wire_size


def test_send_without_receiver_raises():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0, prop_delay=0.0)
    with pytest.raises(RuntimeError):
        link.send(make_packet())


@pytest.mark.parametrize("field,value", [
    ("bandwidth", 0), ("bandwidth", -5), ("prop_delay", -0.1),
    # Refused where they are written, not at the first send (a NaN
    # bandwidth) or the first re-ordered packet deep inside a run.
    ("bandwidth", float("nan")), ("prop_delay", float("nan")),
    ("reorder_extra_delay", -0.01), ("reorder_extra_delay", float("nan")),
])
def test_invalid_link_parameters(field, value):
    sim = Simulator()
    kwargs = {"bandwidth": 1000.0, "prop_delay": 0.0}
    kwargs[field] = value
    with pytest.raises(ValueError):
        Link(sim, **kwargs)


@pytest.mark.parametrize("rate", [-0.1, 1.5])
def test_invalid_rates(rate):
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, 1000.0, 0.0, loss_rate=rate)


# -- one-event and two-event crossings ---------------------------------------

def _transmitted_entries(sim):
    return sum(1 for entry in sim._heap if entry[2].__name__ == "_transmitted")


def _plain(sim, link):
    pass


def _spans(sim, link):
    from repro.metrics.spans import SpanRecorder
    link.spans = SpanRecorder(sim=sim)


def _telemetry(sim, link):
    from repro.metrics.telemetry import Telemetry
    Telemetry(sim).register_link(link)


def _verifier(sim, link):
    from repro.verify.oracles import VerificationHarness
    VerificationHarness(sim).watch_links(link)


def _corrupting(sim, link):
    return Link(sim, 1000.0, 0.01, corrupt_rate=0.1)


def _flap(sim, link):
    from repro.sim.faults import schedule_link_flap
    schedule_link_flap(sim, link, at=5.0, down_for=1.0)


def _burst(sim, link):
    from repro.sim.faults import schedule_bursty_loss
    schedule_bursty_loss(sim, link, 5.0, 6.0, random.Random(0))


def _loss_window(sim, link):
    from repro.sim.faults import schedule_loss_window
    schedule_loss_window(sim, link, 5.0, 0.5, until=6.0)


@pytest.mark.parametrize("setup", [
    _plain, _spans, _telemetry, _verifier, _corrupting, _flap, _burst,
    _loss_window,
], ids=lambda setup: setup.__name__[1:])
def test_crossing_keeps_two_events_only_where_it_is_observed(setup):
    """An observed, corrupting or armed link dispatches ``_transmitted``;
    an unwatched one pushes only the delivery."""
    sim = Simulator()
    link = Link(sim, 1000.0, 0.01)
    link = setup(sim, link) or link
    delivered = []
    link.connect(delivered.append)
    link.send(make_packet(100))
    assert _transmitted_entries(sim) == (0 if setup is _plain else 1)
    sim.run(until=1.0)
    assert len(delivered) == 1
    assert link.stats.packets_delivered == 1


@pytest.mark.parametrize("name, value", [
    ("down", True), ("loss_rate", 0.5), ("reorder_rate", 0.5),
    ("corrupt_rate", 0.5), ("loss_model", object()), ("prop_delay", 0.2),
    ("reorder_extra_delay", 0.2),
])
def test_drawn_parameter_write_refused_while_a_drawn_packet_serialises(
        name, value):
    """A one-event packet's fate is drawn when it is offered, so a write
    that would have reached it at the end of serialisation raises; it
    lands once the packet has left the transmitter, and on an armed
    link at any time."""
    from repro.sim import SimulationError
    from repro.sim.faults import schedule_link_flap

    sim = Simulator()
    link = Link(sim, 1000.0, 0.01)
    link.connect(lambda pkt: None)
    link.send(make_packet(100))             # serialises until t=0.14
    with pytest.raises(SimulationError, match=name):
        setattr(link, name, value)
    sim.run(until=0.14)                     # still serialising at its end
    with pytest.raises(SimulationError, match=name):
        setattr(link, name, value)
    sim.run(until=0.15)
    setattr(link, name, value)
    assert getattr(link, name) is value

    armed = Link(sim, 1000.0, 0.01)
    armed.connect(lambda pkt: None)
    schedule_link_flap(sim, armed, at=10.0, down_for=1.0)
    armed.send(make_packet(100))
    setattr(armed, name, value)
    assert getattr(armed, name) is value


def test_one_event_queue_limit_counts_packets_until_they_serialise():
    sim = Simulator()
    link = Link(sim, 1000.0, 0.0, queue_limit=2)
    delivered = []
    link.connect(delivered.append)
    for _ in range(3):
        link.send(make_packet(60))          # 0.1 s each
    assert link.stats.packets_queue_dropped == 1
    sim.run(until=0.1)                      # the first has left
    link.send(make_packet(60))
    link.send(make_packet(60))
    assert link.stats.packets_queue_dropped == 2
    sim.run()
    assert len(delivered) == 3
    # Packets that crossed in one event still fill the queue after the
    # link is armed and the next one takes two.
    link.send(make_packet(60))
    link.send(make_packet(60))
    link.arm()
    link.send(make_packet(60))
    assert link.stats.packets_queue_dropped == 3
    assert _transmitted_entries(sim) == 0
    sim.run(until=sim.now + 0.1)
    link.send(make_packet(60))
    assert _transmitted_entries(sim) == 1


def test_link_unwatched_again_waits_for_two_event_packets():
    """Clearing ``down`` puts the link back on one event only once the
    packets that took two have left, so the draws stay in FIFO order.
    ``down`` is read at the end of serialisation, so the packet offered
    while the link was down is delivered."""
    sim = Simulator()
    link = Link(sim, 1000.0, 0.0)
    link.connect(lambda pkt: None)
    link.down = True
    link.send(make_packet(60))
    link.down = False
    link.send(make_packet(60))
    assert _transmitted_entries(sim) == 2
    sim.run()
    assert link.stats.packets_delivered == 2
    link.send(make_packet(60))
    assert _transmitted_entries(sim) == 0
