"""Tests for the chaos fault primitives.

Covers the new link-level windows (Gilbert-Elliott bursty loss, flaps,
partitions, control blackouts), the new injector actions (re-order,
duplicate), the gateway-level actions (memory pressure, clock skew) and
the idempotence hardening of detach/crash/restore.
"""

import math
import random

import pytest

from repro.core.cache import ByteCache
from repro.metrics.report import format_recovery
from repro.net.packet import (ControlMessage, IPPacket, PROTO_DRE_CONTROL,
                              PROTO_TCP, TCPSegment)
from repro.sim.engine import Simulator
from repro.sim.faults import (FaultInjector, GatewayFaultLog, all_of,
                              control_blackout, match_control,
                              match_nth_data, match_time_window,
                              schedule_bursty_loss, schedule_clock_skew,
                              schedule_gateway_restart, schedule_link_flap,
                              schedule_loss_window, schedule_memory_pressure,
                              schedule_partition)
from repro.sim.link import GilbertElliottLoss, Link, LinkStats

from tests.tcp_helpers import TcpTestbed, drop_indices


class Pkt:
    size = 1000
    wire_size = 1000


def data_packet(seq=0, data=b"x"):
    return IPPacket(src="a", dst="b", proto=PROTO_TCP,
                    payload=TCPSegment(src_port=1, dst_port=2, seq=seq,
                                       ack=0, flags=TCPSegment.ACK,
                                       window=0, data=data))


def control_packet(kind):
    return IPPacket(src="gw-a", dst="gw-b", proto=PROTO_DRE_CONTROL,
                    payload=ControlMessage(kind=kind, payload=[1]))


def wired_link(sim, **kwargs):
    delivered = []
    link = Link(sim, 1e6, 0.001, rng=random.Random(1), name="l", **kwargs)
    link.connect(delivered.append)
    return link, delivered


class TestGilbertElliott:
    def test_rejects_out_of_range_probabilities(self):
        for bad in ({"p_good_bad": -0.1}, {"p_bad_good": 1.5},
                    {"loss_good": 2.0}, {"loss_bad": -1.0}):
            with pytest.raises(ValueError):
                GilbertElliottLoss(random.Random(0), **bad)

    def test_stuck_bad_state_loses_everything(self):
        model = GilbertElliottLoss(random.Random(0), p_good_bad=1.0,
                                   p_bad_good=0.0, loss_bad=1.0,
                                   start_bad=True)
        assert all(model.lost() for _ in range(50))
        assert model.losses == 50

    def test_good_state_with_zero_loss_is_transparent(self):
        model = GilbertElliottLoss(random.Random(0), p_good_bad=0.0,
                                   loss_good=0.0, loss_bad=1.0)
        assert not any(model.lost() for _ in range(50))

    def test_same_seed_same_burst_pattern(self):
        draws = []
        for _ in range(2):
            model = GilbertElliottLoss(random.Random(42), p_good_bad=0.2,
                                       p_bad_good=0.3, loss_bad=0.7)
            draws.append([model.lost() for _ in range(200)])
        assert draws[0] == draws[1]
        assert any(draws[0])          # the pattern actually loses packets

    def test_model_replaces_uniform_loss_while_attached(self):
        # loss_rate=1.0 would kill every packet; a lossless GE model
        # attached on top must win.
        sim = Simulator()
        link, delivered = wired_link(sim, loss_rate=1.0)
        link.loss_model = GilbertElliottLoss(random.Random(0),
                                             p_good_bad=0.0, loss_bad=1.0)
        for i in range(10):
            sim.at(0.01 * (i + 1), link.send, Pkt())
        sim.run(until=1.0)
        assert len(delivered) == 10


class TestLinkWindows:
    def test_down_link_loses_every_packet(self):
        sim = Simulator()
        link, delivered = wired_link(sim)
        link.down = True
        sim.at(0.01, link.send, Pkt())
        sim.run(until=1.0)
        assert delivered == []
        assert link.stats.packets_lost == 1

    def test_link_flap_window(self):
        sim = Simulator()
        link, delivered = wired_link(sim)
        schedule_link_flap(sim, link, at=0.1, down_for=0.1)
        for t in (0.05, 0.15, 0.25):        # before, during, after
            sim.at(t, link.send, Pkt())
        sim.run(until=1.0)
        assert len(delivered) == 2
        assert link.stats.packets_lost == 1
        assert not link.down

    def test_repeated_flaps_need_period(self):
        sim = Simulator()
        link, _ = wired_link(sim)
        with pytest.raises(ValueError):
            schedule_link_flap(sim, link, at=0.0, down_for=0.2, flaps=2)
        with pytest.raises(ValueError):
            schedule_link_flap(sim, link, at=0.0, down_for=0.2, flaps=2,
                               period=0.1)
        events = schedule_link_flap(sim, link, at=0.0, down_for=0.1,
                                    flaps=3, period=0.3)
        assert len(events) == 6             # a down and an up per flap

    def test_partition_downs_both_directions(self):
        sim = Simulator()
        forward, fwd_delivered = wired_link(sim)
        reverse, rev_delivered = wired_link(sim)
        schedule_partition(sim, forward, reverse, at=0.1, duration=0.2)
        for t in (0.15, 0.2):
            sim.at(t, forward.send, Pkt())
            sim.at(t, reverse.send, Pkt())
        sim.at(0.5, forward.send, Pkt())
        sim.run(until=1.0)
        assert fwd_delivered != [] and len(fwd_delivered) == 1
        assert rev_delivered == []

    def test_bursty_loss_window_attaches_and_detaches(self):
        # The model draws for the packets whose serialisation ends
        # inside its window and for no other.
        sim = Simulator()
        link, delivered = wired_link(sim)
        model = schedule_bursty_loss(sim, link, 0.1, 0.3, random.Random(7),
                                     start_bad=True, p_bad_good=0.0,
                                     loss_bad=1.0)
        for t in (0.05, 0.2, 0.25, 0.4):    # before, during x2, after
            sim.at(t, link.send, Pkt())
        sim.run(until=1.0)
        assert model.losses == link.stats.packets_lost == 2
        assert len(delivered) == 2
        assert link.loss_model is None

    def test_bursty_loss_detach_spares_a_newer_model(self):
        # An expiring window must not tear down a model some later
        # window attached in the meantime.
        sim = Simulator()
        link, _ = wired_link(sim)
        older = schedule_bursty_loss(sim, link, 0.0, 0.2, random.Random(1))
        newer = schedule_bursty_loss(sim, link, 0.1, 0.5, random.Random(2),
                                     start_bad=True, p_bad_good=0.0,
                                     loss_bad=1.0)
        sim.at(0.3, link.send, Pkt())
        sim.run(until=1.0)
        assert link.loss_model is newer
        assert (older.losses, newer.losses) == (0, 1)

    def test_loss_window_sets_and_restores_the_rate(self):
        sim = Simulator()
        link, delivered = wired_link(sim, loss_rate=0.0)
        schedule_loss_window(sim, link, 0.1, 1.0, until=0.2)
        for t in (0.05, 0.15, 0.25):        # before, during, after
            sim.at(t, link.send, Pkt())
        sim.run(until=1.0)
        assert len(delivered) == 2
        assert link.stats.packets_lost == 1
        assert link.loss_rate == 0.0

    @pytest.mark.parametrize("rate", [1.5, -0.1, math.nan])
    def test_loss_window_refuses_a_rate_link_would(self, rate):
        sim = Simulator()
        link, _ = wired_link(sim)
        with pytest.raises(ValueError, match="loss rate"):
            schedule_loss_window(sim, link, 0.1, rate, until=0.2)
        with pytest.raises(ValueError, match="loss_rate"):
            Link(sim, 1e6, 0.001, loss_rate=rate)
        assert link._writes == [] and sim.pending() == 0

    def test_bursty_loss_rejects_empty_window(self):
        sim = Simulator()
        link, _ = wired_link(sim)
        with pytest.raises(ValueError):
            schedule_bursty_loss(sim, link, 0.5, 0.5, random.Random(0))


class TestWindowedPredicates:
    def test_match_time_window(self):
        clock = {"now": 0.0}
        predicate = match_time_window(lambda: clock["now"], 1.0, 2.0)
        for now, expected in ((0.5, False), (1.0, True), (1.5, True),
                              (2.0, False)):
            clock["now"] = now
            assert predicate(None, 0) is expected

    def test_match_time_window_rejects_inverted(self):
        with pytest.raises(ValueError):
            match_time_window(lambda: 0.0, 2.0, 1.0)

    def test_all_of_short_circuits(self):
        # The stateful counter must not advance outside the window.
        counting = match_nth_data(1)
        predicate = all_of(lambda pkt, index: False, counting)
        assert not predicate(data_packet(), 0)
        assert counting(data_packet(), 1)   # still waiting for its 1st

    def test_all_of_rejects_empty(self):
        with pytest.raises(ValueError):
            all_of()

    def test_control_blackout_window(self):
        testbed = TcpTestbed()
        injectors = [FaultInjector(testbed.c2s), FaultInjector(testbed.s2c)]
        control_blackout(injectors, 1.0, 2.0)
        for t in (0.5, 1.5, 2.5):
            testbed.sim.at(t, testbed.c2s.send, control_packet("heartbeat"))
            testbed.sim.at(t, testbed.s2c.send,
                           control_packet("cache_resync"))
        testbed.sim.run(until=5)
        assert len(injectors[0].log.dropped) == 1
        assert len(injectors[1].log.dropped) == 1

    def test_control_blackout_filters_kinds(self):
        testbed = TcpTestbed()
        injector = FaultInjector(testbed.s2c)
        control_blackout([injector], 0.0, 10.0, "cache_resync")
        testbed.sim.at(0.5, testbed.s2c.send, control_packet("heartbeat"))
        testbed.sim.at(0.5, testbed.s2c.send, control_packet("cache_resync"))
        testbed.sim.run(until=2)
        assert len(injector.log.dropped) == 1


class TestReorderDuplicate:
    def fetch(self, testbed, size=20 * 1460, seed=3):
        rng = random.Random(seed)
        data = bytes(rng.randrange(256) for _ in range(size))
        testbed.serve_bytes(data)
        conn, received, _ = testbed.fetch()
        testbed.sim.run(until=30)
        return data, bytes(received)

    def test_reorder_delivers_in_full(self):
        testbed = TcpTestbed()
        injector = FaultInjector(testbed.s2c)
        injector.reorder_when(match_nth_data(3), extra_delay=0.2)
        data, received = self.fetch(testbed)
        assert received == data
        assert len(injector.log.reordered) == 1
        assert injector.log.dropped == []

    def test_duplicate_delivers_exactly_once_to_the_app(self):
        testbed = TcpTestbed()
        injector = FaultInjector(testbed.s2c)
        injector.duplicate_when(match_nth_data(2, 5))
        data, received = self.fetch(testbed)
        assert received == data
        assert len(injector.log.duplicated) == 2

    def test_duplicate_is_a_deep_copy_behind_the_original(self):
        testbed = TcpTestbed()
        injector = FaultInjector(testbed.s2c)
        injector.duplicate_when(match_nth_data(1))
        testbed.sim.at(0.1, testbed.s2c.send, data_packet(data=b"payload"))
        testbed.sim.run(until=1)
        delivered = testbed.s2c.delivered
        assert len(delivered) == 2
        original, copy_ = delivered
        assert copy_ is not original
        assert copy_.payload is not original.payload
        assert copy_.payload.data == original.payload.data

    def test_validation(self):
        testbed = TcpTestbed()
        injector = FaultInjector(testbed.s2c)
        with pytest.raises(ValueError):
            injector.reorder_when(match_nth_data(1), extra_delay=0.0)
        with pytest.raises(ValueError):
            injector.duplicate_when(match_nth_data(1), delay=-0.1)


class TestStackedInjectors:
    def test_stacked_injectors_chain_in_install_order(self):
        # The newest injector sees each packet first; what it passes on
        # reaches the one below it, which counts its own offers.
        testbed = TcpTestbed()
        first = FaultInjector(testbed.s2c).drop_when(drop_indices(1))
        second = FaultInjector(testbed.s2c).drop_when(drop_indices(0))
        for _ in range(3):
            testbed.s2c.send(data_packet())
        testbed.sim.run(until=1)
        assert second.log.dropped == [0]
        assert first.log.dropped == [1]
        assert len(testbed.s2c.delivered) == 1

    def test_stacked_injectors_each_apply_their_rules(self):
        testbed = TcpTestbed()
        first = FaultInjector(testbed.s2c)
        second = FaultInjector(testbed.s2c).drop_when(drop_indices(0))
        testbed.s2c.send(data_packet())      # dropped by the top injector
        testbed.s2c.send(data_packet())
        testbed.sim.run(until=1)
        assert len(second.log.dropped) == 1
        assert first.log.events == 0
        assert len(testbed.s2c.delivered) == 1


class FakeGateway:
    def __init__(self):
        self.name = "fake-gw"
        self.down = False
        self.restarts = 0
        self.resilience = None

    def fail(self):
        self.down = True

    def restart(self):
        self.down = False
        self.restarts += 1


class TestGatewayRestartIdempotence:
    def test_overlapping_crash_supersedes_first_restore(self):
        sim = Simulator()
        gateway = FakeGateway()
        log = GatewayFaultLog()
        schedule_gateway_restart(sim, gateway, at=0.1, downtime=0.5,
                                 log=log)
        schedule_gateway_restart(sim, gateway, at=0.3, downtime=0.5,
                                 log=log)
        probes = {}
        sim.at(0.7, lambda: probes.update(mid=gateway.down))
        sim.at(0.9, lambda: probes.update(end=gateway.down))
        sim.run(until=2)
        # The first restore (t=0.6) lands inside the second crash's
        # window and must not fire; only the second restore (t=0.8)
        # brings the gateway back.
        assert probes["mid"] is True
        assert probes["end"] is False
        assert gateway.restarts == 1
        assert log.crashes == [pytest.approx(0.1), pytest.approx(0.3)]
        assert log.restarts == [pytest.approx(0.8)]

    def test_stale_restore_after_manual_restart_is_a_noop(self):
        sim = Simulator()
        gateway = FakeGateway()
        schedule_gateway_restart(sim, gateway, at=0.1, downtime=0.5)
        sim.at(0.3, gateway.restart)         # operator beat the schedule
        sim.run(until=2)
        assert gateway.restarts == 1
        assert not gateway.down


class CachingGateway:
    def __init__(self, byte_budget=100_000):
        self.name = "caching-gw"
        self.cache = ByteCache(byte_budget=byte_budget)
        self.resilience = None


class TestMemoryPressure:
    def fill(self, gateway, packets=50, size=1400):
        for index in range(packets):
            gateway.cache.insert_packet(bytes([index % 251]) * size,
                                        [(0, index)])

    def test_squeeze_forces_eviction_storm(self):
        sim = Simulator()
        gateway = CachingGateway()
        self.fill(gateway)
        log = GatewayFaultLog()
        schedule_memory_pressure(sim, gateway, at=0.1, fraction=0.25,
                                 log=log)
        sim.run(until=1)
        assert len(log.pressure) == 1
        _, evicted = log.pressure[0]
        assert evicted > 0
        store = gateway.cache.store
        assert store.bytes_used <= store.byte_budget

    def test_budget_restored_after_duration_entries_stay_gone(self):
        sim = Simulator()
        gateway = CachingGateway()
        self.fill(gateway)
        used_before = gateway.cache.store.bytes_used
        schedule_memory_pressure(sim, gateway, at=0.1, fraction=0.25,
                                 duration=0.2)
        sim.run(until=1)
        store = gateway.cache.store
        assert store.byte_budget == 100_000       # budget came back
        assert store.bytes_used < used_before     # the entries did not

    def test_validation(self):
        sim = Simulator()
        gateway = CachingGateway()
        with pytest.raises(ValueError):
            schedule_memory_pressure(sim, gateway, at=0.1, fraction=0.0)
        with pytest.raises(ValueError):
            schedule_memory_pressure(sim, gateway, at=0.1, fraction=1.5)
        with pytest.raises(ValueError):
            schedule_memory_pressure(sim, gateway, at=0.1, duration=-1.0)


class SkewableResilience:
    clock_skew = 1.0


class TestClockSkew:
    def test_skew_applied_and_restored(self):
        sim = Simulator()
        gateway = FakeGateway()
        gateway.resilience = SkewableResilience()
        log = GatewayFaultLog()
        schedule_clock_skew(sim, gateway, at=0.1, factor=4.0, duration=0.5,
                            log=log)
        probes = {}
        sim.at(0.3, lambda: probes.update(mid=gateway.resilience.clock_skew))
        sim.run(until=2)
        assert probes["mid"] == 4.0
        assert gateway.resilience.clock_skew == 1.0
        assert log.skews == [(pytest.approx(0.1), 4.0),
                             (pytest.approx(0.6), 1.0)]

    def test_requires_a_heartbeat_clock(self):
        sim = Simulator()
        gateway = FakeGateway()                  # resilience is None
        schedule_clock_skew(sim, gateway, at=0.1, factor=2.0)
        with pytest.raises(RuntimeError):
            sim.run(until=1)

    def test_validation(self):
        sim = Simulator()
        gateway = FakeGateway()
        with pytest.raises(ValueError):
            schedule_clock_skew(sim, gateway, at=0.1, factor=0.0)
        with pytest.raises(ValueError):
            schedule_clock_skew(sim, gateway, at=0.1, factor=2.0,
                                duration=0.0)


class TestMeasurementEdges:
    """Satellite hardening: unmeasurable values render, never raise."""

    def test_zero_packet_link_loss_fraction_is_nan(self):
        stats = LinkStats()
        assert math.isnan(stats.loss_fraction)

    def test_loss_fraction_still_measures_normally(self):
        stats = LinkStats(packets_offered=10, packets_lost=3)
        assert stats.loss_fraction == pytest.approx(0.3)

    def test_format_recovery_renders_dashes_for_missing(self):
        summary = {
            "link_loss": float("nan"),       # zero-packet link
            "resyncs_completed": 0,
            "time_to_resync": None,          # never resynced
            "heartbeat_state": "ok",
        }
        text = format_recovery("recovery", [summary], labels=["run0"])
        assert "—" in text
        assert "None" not in text
        assert "nan" not in text
