"""Unit tests for the impaired link model."""

import random

import pytest

from repro.net.packet import IPPacket, PROTO_TCP, TCPSegment
from repro.core.checksum import payload_checksum
from repro.sim import Link, Simulator
from repro.sim.link import GilbertElliottLoss


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
    n = 2000
    link = Link(sim, bandwidth=1e9, prop_delay=0.0, loss_rate=0.3,
                rng=random.Random(1), queue_limit=n)
    delivered = []
    link.connect(delivered.append)
    for _ in range(n):
        link.send(make_packet(100))
    sim.run()
    observed = 1 - len(delivered) / n
    assert 0.25 < observed < 0.35
    assert link.stats.packets_lost == n - len(delivered)


def test_zero_loss_delivers_everything():
    sim = Simulator()
    link = Link(sim, bandwidth=1e9, prop_delay=0.0, queue_limit=500)
    delivered = []
    link.connect(delivered.append)
    for _ in range(500):
        link.send(make_packet(100))
    sim.run()
    assert len(delivered) == 500


def test_corruption_flips_payload_or_header():
    sim = Simulator()
    link = Link(sim, bandwidth=1e9, prop_delay=0.0, corrupt_rate=1.0,
                rng=random.Random(3), queue_limit=100)
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
                reorder_extra_delay=0.5, rng=random.Random(5), queue_limit=50)
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
    link = Link(sim, bandwidth=1e9, prop_delay=0.0)
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
    # 0 would drop every packet and leave the ring no slot;
    # every link is bounded, so None is refused too.
    ("queue_limit", 0), ("queue_limit", -1), ("queue_limit", float("nan")),
    ("queue_limit", None),
    # The limit sizes that ring: a fraction, a float from a JSON config
    # or a bool is a ValueError here, not a TypeError from the list.
    ("queue_limit", 2.5), ("queue_limit", 1000.0), ("queue_limit", True),
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


# -- one crossing, timed writes ----------------------------------------------

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
    pytest.param(setup, id=setup.__name__[1:])
    for setup in [_plain, _spans, _telemetry, _verifier, _corrupting, _flap,
                  _burst, _loss_window]])
def test_crossing_keeps_two_events_only_where_it_is_observed(setup):
    """Nothing observes a crossing between offer and delivery any more:
    observers, corruption and faults scheduled on the link leave it at
    one event, and ``send`` pushes the delivery and nothing else."""
    sim = Simulator()
    link = Link(sim, 1000.0, 0.01)
    link = setup(sim, link) or link
    delivered = []
    link.connect(delivered.append)
    before = {id(entry) for entry in sim._heap}
    link.send(make_packet(100))
    pushed = [entry for entry in sim._heap if id(entry) not in before]
    assert [entry[2] for entry in pushed] == [link._deliver]
    sim.run(until=1.0)
    assert len(delivered) == 1
    assert link.stats.packets_delivered == 1


def test_timed_write_reaches_a_packet_queued_before_it():
    """A write takes effect for every packet whose serialisation ends at
    or after its time, so a flap that starts while a packet queues
    catches it, and the end of the window, counted in, releases the
    packet ending exactly then."""
    from repro.sim.faults import schedule_link_flap

    sim = Simulator()
    link = Link(sim, 1000.0, 0.0)
    delivered = []
    link.connect(delivered.append)
    schedule_link_flap(sim, link, at=0.05, down_for=0.15)
    link.send(make_packet(60))              # serialises over [0, 0.1)
    link.send(make_packet(60))              # [0.1, 0.2): ends as the flap does
    assert link.stats.packets_lost == 1 and link.down is False
    sim.run()
    assert len(delivered) == 1
    assert link.settled() == (0, 1)


@pytest.mark.parametrize("name, value", [
    ("down", True), ("loss_rate", 0.5), ("reorder_rate", 0.5),
    ("corrupt_rate", 0.5), ("loss_model", GilbertElliottLoss(random.Random(0))),
    ("prop_delay", 0.2), ("reorder_extra_delay", 0.2),
])
def test_drawn_parameter_write_refused_while_a_drawn_packet_serialises(
        name, value):
    """A packet's fate is drawn when it is offered, so a write timed at
    or before the end of serialisation of a packet already offered, or
    in the past, raises and records nothing; one timed after it lands.
    A parameter no draw reads cannot be timed."""
    from repro.sim import SimulationError

    sim = Simulator()
    link = Link(sim, 1000.0, 0.01)
    link.connect(lambda pkt: None)
    link.send(make_packet(100))             # serialises until t=0.14
    for at in (0.0, 0.14):
        with pytest.raises(SimulationError, match=name):
            link.write_at(at, name, value)
    sim.run(until=0.5)
    with pytest.raises(SimulationError, match=name):
        link.write_at(0.4, name, value)
    assert link._writes == []
    link.write_at(0.5, name, value)
    link.send(make_packet(100))
    assert getattr(link, name) is value
    with pytest.raises(ValueError, match="bandwidth"):
        link.write_at(1.0, "bandwidth", 500.0)


def test_link_unwatched_again_waits_for_two_event_packets():
    """``down`` is read at the end of serialisation, so a packet offered
    while a flap is on, whose serialisation ends after the flap does,
    is delivered, and so is every packet after it."""
    from repro.sim.faults import schedule_link_flap

    sim = Simulator()
    link = Link(sim, 1000.0, 0.0)
    link.connect(lambda pkt: None)
    schedule_link_flap(sim, link, at=0.0, down_for=0.05)
    link.send(make_packet(60))              # [0, 0.1): ends after the flap
    link.send(make_packet(60))
    assert link.down is False and link.stats.packets_lost == 0
    sim.run()
    assert link.stats.packets_delivered == 2
    link.send(make_packet(60))
    sim.run()
    assert link.stats.packets_delivered == 3


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


@pytest.mark.parametrize("limit", [3])
def test_settled_reads_the_link_as_two_events_would(limit):
    """Queue depth counts a packet until its serialisation ends, and
    its loss only from then, as ``_transmitted`` would have."""
    sim = Simulator()
    link = Link(sim, 1000.0, 0.0, loss_rate=1.0, queue_limit=limit)
    link.connect(lambda pkt: None)
    for _ in range(40):
        link.send(make_packet(60))          # 0.1 s each, all lost
    assert link.stats.packets_lost == limit
    assert link.settled() == (limit, 0)
    sim.run(until=0.1)                      # the first has left
    assert link.settled() == (limit - 1, 1)
    sim.run(until=0.25)
    assert link.settled() == (limit - 2, 2)
    sim.run(until=10.0)
    assert link.settled() == (0, limit)


def test_settled_counts_both_crossings_in_one_queue():
    """A packet lost to a down link and one delivered count alike in
    the depth until their end of serialisation, and the loss among the
    losses only from then."""
    from repro.sim.faults import schedule_link_flap

    sim = Simulator()
    link = Link(sim, 1000.0, 0.0, queue_limit=4)
    link.connect(lambda pkt: None)
    schedule_link_flap(sim, link, at=0.15, down_for=1.0)
    for _ in range(3):
        link.send(make_packet(60))          # the last two end down
    assert link.stats.packets_lost == 2
    assert link.settled() == (3, 0)
    sim.run(until=0.2)
    assert link.settled() == (1, 1)
    sim.run()
    assert link.settled() == (0, 2)


def test_one_event_transit_spans_match_the_two_event_crossing():
    """With spans on, a lossy, corrupting, re-ordering link with a flap
    and a loss burst scheduled still crosses in one event, and its
    ``link_transit`` rows read as the two-event crossing's: opened at
    offer, a loss closed at the end of serialisation with its reason,
    corruption and re-ordering flagged, ``wall`` 0.0."""
    from repro.metrics.spans import SpanRecorder
    from repro.sim.faults import schedule_bursty_loss, schedule_link_flap
    from tests import reference_sim

    def transits(link_class):
        sim = Simulator()
        link = link_class(sim, 1000.0, 0.01, loss_rate=0.4,
                          corrupt_rate=0.3, reorder_rate=0.5,
                          rng=random.Random(3))
        link.connect(lambda pkt: None)
        link.spans = rec = SpanRecorder(sim=sim)
        schedule_link_flap(sim, link, at=0.3, down_for=0.2)
        schedule_bursty_loss(sim, link, 0.6, 0.9, random.Random(4),
                             p_good_bad=0.5, loss_bad=0.8)
        for _ in range(12):
            pkt = make_packet(60)
            root = rec.packet_begin("encode", "gw", pkt.packet_id)
            rec.end(root)
            link.send(pkt)
        sim.run()
        return [{k: v for k, v in span.items() if k != "tags"}
                | {"tags": {k: v for k, v in span["tags"].items()
                            if k != "packet"}}
                for span in rec.export()["spans"]
                if span["name"] == "link_transit"]

    one_event = transits(Link)
    two_event = transits(reference_sim.Link)
    assert one_event == two_event
    assert {span["tags"]["outcome"] for span in one_event} == {
        "lost", "delivered"}
    assert {span["tags"].get("reason") for span in one_event} >= {
        "loss", "link_down", "bursty_loss"}
    assert any(span["tags"].get("reordered") for span in one_event)
    assert any(span["tags"].get("corrupted") for span in one_event)
    assert all(span["wall"] == 0.0 for span in one_event)
