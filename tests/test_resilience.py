"""Unit tests for the gateway resilience layer (epochs / resync /
heartbeats / watchdog) and the cache primitives behind it."""

import dataclasses
import random

import pytest

from repro import ExperimentConfig
from repro.core.cache import ByteCache
from repro.experiments.runner import build_gateways
from repro.gateway import ResilienceConfig
from repro.gateway.resilience import (CONTROL_KIND_HEARTBEAT,
                                      CONTROL_KIND_HEARTBEAT_ACK,
                                      CONTROL_KIND_RESYNC,
                                      CONTROL_KIND_RESYNC_ACK,
                                      MODE_BYPASS, MODE_ENCODE, MODE_RAW)
from repro.core.checksum import payload_checksum
from repro.net.packet import (ControlMessage, IP_HEADER_SIZE, IPPacket,
                              PROTO_DRE_CONTROL, PROTO_TCP, TCPSegment)
from repro.sim import Simulator

CLIENT = "10.0.1.1"
SERVER = "10.0.2.1"


class Sink:
    def __init__(self):
        self.packets = []

    def send(self, pkt):
        self.packets.append(pkt)

    def controls(self, kind=None):
        found = [p for p in self.packets if p.proto == PROTO_DRE_CONTROL]
        if kind is not None:
            found = [p for p in found if p.payload.kind == kind]
        return found


def data_packet(data: bytes, seq: int = 0) -> IPPacket:
    segment = TCPSegment(src_port=80, dst_port=5000, seq=seq, ack=0,
                         flags=TCPSegment.ACK, window=1000, data=data,
                         checksum=payload_checksum(data))
    return IPPacket(src=SERVER, dst=CLIENT, proto=PROTO_TCP, payload=segment)


def random_bytes(seed, n=1460):
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


def make_pair(policy="naive", config=None):
    sim = Simulator()
    if config is None:
        config = ResilienceConfig()
    pair = build_gateways(sim, ExperimentConfig(
        policy=policy, resilience=True,
        resilience_kwargs=dataclasses.asdict(config)))
    enc_out, dec_out = Sink(), Sink()
    pair.encoder.set_default_route(enc_out)
    pair.decoder.set_default_route(dec_out)
    return sim, pair, enc_out, dec_out


class TestCachePrimitives:
    def _populated(self, n=4):
        cache = ByteCache()
        for i in range(n):
            cache.insert_packet(random_bytes(i), anchors=[(0, 1000 + i)])
        return cache

    def test_flush_does_not_bump_epoch(self):
        cache = self._populated()
        cache.flush()
        assert cache.epoch == 0       # Cache Flush policy flushes per
        assert len(cache.store) == 0  # retransmission without divergence

    def test_bump_epoch_increments(self):
        cache = ByteCache()
        assert cache.bump_epoch() == 1
        assert cache.bump_epoch() == 2
        assert cache.epoch == 2

    def test_evict_oldest_removes_in_fifo_order(self):
        cache = self._populated(4)
        assert cache.store.evict_oldest(2) == 2
        assert len(cache.store) == 2
        # The oldest two are gone; their table entries invalidate lazily.
        assert cache.lookup(1000) is None
        assert cache.lookup(1003) is not None

    def test_evict_oldest_bounded_by_population(self):
        cache = self._populated(2)
        assert cache.store.evict_oldest(10) == 2
        assert len(cache.store) == 0

    def test_evict_fraction(self):
        cache = self._populated(4)
        assert cache.evict_fraction(0.5) == 2
        assert len(cache.store) == 2

    def test_evict_fraction_validates_range(self):
        cache = self._populated(2)
        with pytest.raises(ValueError):
            cache.evict_fraction(1.5)
        with pytest.raises(ValueError):
            cache.evict_fraction(-0.1)


class TestEpochStamping:
    def test_shimmed_payloads_carry_encoder_epoch(self):
        sim, pair, enc_out, dec_out = make_pair()
        pair.encoder.receive(data_packet(random_bytes(1)))
        pkt = enc_out.packets[0]
        assert pkt.tcp.dre_epoch == 0
        pair.encoder.cache.bump_epoch()
        pair.encoder.receive(data_packet(random_bytes(2), seq=1460))
        assert enc_out.packets[1].tcp.dre_epoch == 1

    def test_epoch_charges_one_shim_byte(self):
        sim, pair, enc_out, _ = make_pair()
        payload = random_bytes(3)
        pair.encoder.receive(data_packet(payload))
        with_layer = enc_out.packets[0].wire_size

        sim2 = Simulator()
        bare = build_gateways(sim2, ExperimentConfig(policy="naive"))
        bare_out = Sink()
        bare.encoder.set_default_route(bare_out)
        bare.encoder.receive(data_packet(payload))
        assert with_layer == bare_out.packets[0].wire_size + 1

    def test_matching_epoch_decodes_normally(self):
        sim, pair, enc_out, dec_out = make_pair()
        payload = random_bytes(4)
        for seq in (0, 1460):
            pair.encoder.receive(data_packet(payload, seq=seq))
        for pkt in enc_out.packets:
            pair.decoder.receive(pkt)
        assert [p.tcp.data for p in dec_out.packets] == [payload, payload]
        assert pair.decoder.resilience.stats.epoch_mismatch_dropped == 0


class TestResyncHandshake:
    def _diverged_pair(self):
        """Pair where the encoder has moved to epoch 1 behind the
        decoder's back (stand-in for any silent divergence)."""
        sim, pair, enc_out, dec_out = make_pair()
        payload = random_bytes(5)
        for seq in (0, 1460):
            pair.encoder.receive(data_packet(payload, seq=seq))
        for pkt in enc_out.packets:
            pair.decoder.receive(pkt)
        enc_out.packets.clear()
        dec_out.packets.clear()
        pair.encoder.cache.bump_epoch()
        return sim, pair, enc_out, dec_out, payload

    def test_epoch_mismatch_drops_and_signals(self):
        sim, pair, enc_out, dec_out, payload = self._diverged_pair()
        pair.encoder.receive(data_packet(payload, seq=2920))  # region-bearing
        pair.decoder.receive(enc_out.packets[0])
        dec = pair.decoder
        assert dec_out.packets[0].proto == PROTO_DRE_CONTROL  # nothing else out
        assert dec.resilience.stats.epoch_mismatch_dropped == 1
        assert dec.resilience.stats.resyncs_initiated == 1
        assert dec.resilience.resyncing
        assert dec.stats.desync_dropped == 1
        requests = dec_out.controls(CONTROL_KIND_RESYNC)
        assert len(requests) == 1
        assert requests[0].dst == pair.encoder.address
        # Detection-time flush: raw arrivals during the handshake must
        # land in an empty cache, not the diverged one.
        assert len(dec.cache.store) == 0

    def test_region_packets_dropped_while_resyncing_raw_pass(self):
        sim, pair, enc_out, dec_out, payload = self._diverged_pair()
        pair.encoder.receive(data_packet(payload, seq=2920))
        pair.decoder.receive(enc_out.packets[0])      # starts the resync
        pair.encoder.receive(data_packet(payload, seq=4380))
        pair.decoder.receive(enc_out.packets[1])      # still mid-resync
        assert pair.decoder.resilience.stats.desync_dropped == 1
        # A never-seen payload goes out raw (shim only, no regions) and
        # is not gated: it forwards and seeds the decoder's fresh cache.
        fresh = random_bytes(6)
        pair.encoder.receive(data_packet(fresh, seq=5840))
        pair.decoder.receive(enc_out.packets[2])
        delivered = [p for p in dec_out.packets if p.proto == PROTO_TCP]
        assert delivered and delivered[-1].tcp.data == fresh

    def test_full_handshake_adopts_new_epoch(self):
        sim, pair, enc_out, dec_out, payload = self._diverged_pair()
        pair.encoder.receive(data_packet(payload, seq=2920))
        pair.decoder.receive(enc_out.packets[0])
        request = dec_out.controls(CONTROL_KIND_RESYNC)[0]
        pair.encoder.receive(request)
        enc = pair.encoder
        assert enc.resilience.stats.resyncs_handled == 1
        assert enc.cache.epoch == 2               # flush + bump
        assert len(enc.cache.store) == 0
        ack = enc_out.controls(CONTROL_KIND_RESYNC_ACK)[0]
        pair.decoder.receive(ack)
        dec = pair.decoder
        assert not dec.resilience.resyncing
        assert dec.cache.epoch == 2               # adopted from the ack
        assert dec.resilience.stats.resyncs_completed == 1
        assert dec.resilience.stats.time_to_resync is not None

    def test_duplicate_resync_request_served_idempotently(self):
        sim, pair, enc_out, dec_out, payload = self._diverged_pair()
        pair.encoder.receive(data_packet(payload, seq=2920))
        pair.decoder.receive(enc_out.packets[0])
        request = dec_out.controls(CONTROL_KIND_RESYNC)[0]
        pair.encoder.receive(request)
        pair.encoder.receive(request)             # retried request
        enc = pair.encoder
        # One flush+bump, two acks — a second bump would invalidate the
        # epoch the first (possibly in-flight) ack advertised.
        assert enc.resilience.stats.resyncs_handled == 1
        assert enc.cache.epoch == 2
        assert len(enc_out.controls(CONTROL_KIND_RESYNC_ACK)) == 2

    def test_stale_ack_ignored(self):
        sim, pair, enc_out, dec_out, payload = self._diverged_pair()
        pair.encoder.receive(data_packet(payload, seq=2920))
        pair.decoder.receive(enc_out.packets[0])
        dec = pair.decoder
        stale = ControlMessage(kind=CONTROL_KIND_RESYNC_ACK,
                               payload=(999, 7))  # id from a dead attempt
        pkt = IPPacket(src=pair.encoder.address, dst=dec.address,
                       proto=PROTO_DRE_CONTROL, payload=stale)
        dec.receive(pkt)
        assert dec.resilience.resyncing            # still waiting
        assert dec.cache.epoch == 0

    def test_traffic_resumes_after_resync(self):
        sim, pair, enc_out, dec_out, payload = self._diverged_pair()
        pair.encoder.receive(data_packet(payload, seq=2920))
        pair.decoder.receive(enc_out.packets[0])
        pair.encoder.receive(dec_out.controls(CONTROL_KIND_RESYNC)[0])
        pair.decoder.receive(enc_out.controls(CONTROL_KIND_RESYNC_ACK)[0])
        # Post-flush grace: the retransmission ships raw-but-cached so
        # the reference chain restarts from entries both sides hold.
        assert pair.encoder.resilience.encode_mode() == MODE_RAW
        pair.encoder.receive(data_packet(payload, seq=4380))
        grace_pkt = enc_out.packets[-1]
        assert grace_pkt.tcp.dre_epoch == 2
        pair.decoder.receive(grace_pkt)
        delivered = [p for p in dec_out.packets if p.proto == PROTO_TCP]
        assert delivered[-1].tcp.data == payload
        assert pair.encoder.resilience.stats.grace_packets == 1


    def test_control_messages_weigh_header_plus_eight_per_scalar(self):
        """The four messages the layer sends, as sent, weigh what they
        always have: a 4-byte header plus 8 bytes per scalar."""
        sim, pair, enc_out, dec_out, payload = self._diverged_pair()
        pair.encoder.receive(data_packet(payload, seq=2920))
        pair.decoder.receive(enc_out.packets[0])
        pair.encoder.receive(dec_out.controls(CONTROL_KIND_RESYNC)[0])
        sim.run(until=pair.encoder.resilience.config.heartbeat_interval)
        pair.decoder.receive(enc_out.controls(CONTROL_KIND_HEARTBEAT)[0])
        sent = {pkt.payload.kind: pkt.payload.size
                for pkt in enc_out.controls() + dec_out.controls()}
        assert sent == {CONTROL_KIND_HEARTBEAT: 12,
                        CONTROL_KIND_HEARTBEAT_ACK: 12,
                        CONTROL_KIND_RESYNC: 12,
                        CONTROL_KIND_RESYNC_ACK: 20}
        assert all(pkt.wire_size == IP_HEADER_SIZE + pkt.payload.size
                   for pkt in enc_out.controls() + dec_out.controls())


class TestWatchdog:
    def test_undecodable_run_trips_watchdog(self):
        """Same-epoch divergence (silent cache wipe): the epoch cannot
        see it, the undecodable-rate watchdog must."""
        config = ResilienceConfig(watchdog_window=4, watchdog_threshold=0.5)
        sim, pair, enc_out, dec_out = make_pair(config=config)
        payload = random_bytes(7)
        pair.encoder.receive(data_packet(payload, seq=0))
        pair.decoder.receive(enc_out.packets[0])
        pair.decoder.cache.flush()                # silent divergence
        dec = pair.decoder
        for i in range(1, 5):
            pair.encoder.receive(data_packet(payload, seq=i * 1460))
            pair.decoder.receive(enc_out.packets[i])
        assert dec.resilience.stats.watchdog_trips == 1
        assert dec.resilience.stats.resyncs_initiated == 1
        assert dec.resilience.resyncing

    def test_successful_decodes_keep_watchdog_quiet(self):
        config = ResilienceConfig(watchdog_window=4, watchdog_threshold=0.5)
        sim, pair, enc_out, dec_out = make_pair(config=config)
        payload = random_bytes(8)
        for i in range(8):
            pair.encoder.receive(data_packet(payload, seq=i * 1460))
            pair.decoder.receive(enc_out.packets[i])
        assert pair.decoder.resilience.stats.watchdog_trips == 0
        assert pair.decoder.stats.decoded_ok == 8


class TestResyncRetry:
    def test_unanswered_request_retried_with_backoff_then_abandoned(self):
        config = ResilienceConfig(heartbeat_interval=100.0,
                                  resync_timeout=0.05, resync_backoff=2.0,
                                  resync_max_retries=2)
        sim, pair, enc_out, dec_out = make_pair(config=config)
        dec = pair.decoder
        dec.resilience.start_resync()
        sim.run(until=2.0)                        # nothing ever delivered
        stats = dec.resilience.stats
        assert stats.resync_retries == 2
        assert stats.resync_failures == 1
        assert not dec.resilience.resyncing       # gave up ...
        assert len(dec_out.controls(CONTROL_KIND_RESYNC)) == 3
        dec.resilience.start_resync()             # ... but re-triggerable
        assert stats.resyncs_initiated == 2


class TestHeartbeatDegradation:
    def _config(self):
        return ResilienceConfig(heartbeat_interval=0.1,
                                heartbeat_timeout=0.25,
                                resync_grace=0.1)

    def test_decoder_answers_heartbeats(self):
        sim, pair, enc_out, dec_out = make_pair(config=self._config())
        beat = IPPacket(src=pair.encoder.address, dst=pair.decoder.address,
                        proto=PROTO_DRE_CONTROL,
                        payload=ControlMessage(kind=CONTROL_KIND_HEARTBEAT,
                                               payload=7))
        pair.decoder.receive(beat)
        assert pair.decoder.resilience.stats.heartbeats_answered == 1
        assert pair.decoder.stats.control_messages_received == 1
        acks = dec_out.controls(CONTROL_KIND_HEARTBEAT_ACK)
        assert len(acks) == 1 and acks[0].payload.payload == 7

    def test_silent_peer_degrades_encoder_to_passthrough(self):
        sim, pair, enc_out, dec_out = make_pair(config=self._config())
        sim.run(until=1.0)                        # acks never delivered
        enc = pair.encoder
        assert enc.resilience.stats.degraded
        assert enc.resilience.stats.degraded_entries == 1
        assert enc.resilience.stats.heartbeats_sent >= 3
        assert enc.resilience.encode_mode() == MODE_BYPASS
        payload = random_bytes(9)
        enc.receive(data_packet(payload))
        pkt = enc_out.packets[-1]
        assert not pkt.tcp.dre_encoded            # untouched pass-through
        assert pkt.tcp.data == payload
        assert enc.resilience.stats.degraded_packets == 1

    def test_ack_while_degraded_recovers_with_fresh_epoch(self):
        sim, pair, enc_out, dec_out = make_pair(config=self._config())
        sim.run(until=1.0)
        enc = pair.encoder
        assert enc.resilience.stats.degraded
        enc.resilience.on_control(CONTROL_KIND_HEARTBEAT_ACK, 1)
        assert not enc.resilience.stats.degraded
        assert enc.resilience.stats.degraded_time > 0
        assert enc.cache.epoch == 1               # flush+bump on recovery
        assert enc.resilience.encode_mode() == MODE_RAW
        # Peer stays responsive from here on: widen the timeout so the
        # run only lets the grace window elapse.
        enc.resilience.config.heartbeat_timeout = 100.0
        sim.run(until=2.0)
        assert enc.resilience.encode_mode() == MODE_ENCODE


class TestGatewayCrash:
    def test_down_gateway_drops_everything(self):
        sim, pair, enc_out, dec_out = make_pair()
        pair.decoder.fail()
        pair.encoder.receive(data_packet(random_bytes(10)))
        pair.decoder.receive(enc_out.packets[0])
        assert dec_out.packets == []
        assert pair.decoder.stats.dropped_while_down == 1

    def test_restart_comes_back_cold(self):
        sim, pair, enc_out, dec_out = make_pair()
        pair.encoder.receive(data_packet(random_bytes(11)))
        pair.decoder.receive(enc_out.packets[0])
        pair.decoder.cache.epoch = 3
        pair.decoder.fail()
        pair.decoder.restart()
        dec = pair.decoder
        assert not dec.down
        assert len(dec.cache.store) == 0
        assert dec.cache.epoch == 0
        # And it processes traffic again.
        pair.encoder.receive(data_packet(random_bytes(12), seq=1460))
        pair.decoder.receive(enc_out.packets[1])
        delivered = [p for p in dec_out.packets if p.proto == PROTO_TCP]
        assert len(delivered) == 2


def test_gateway_shim_overhead_includes_epoch_stamp():
    from repro.core.wire import EPOCH_STAMP_SIZE, SHIM_SIZE

    _sim, pair, _enc_out, _dec_out = make_pair()
    assert pair.encoder.encoder.shim_overhead == SHIM_SIZE + EPOCH_STAMP_SIZE

    sim2 = Simulator()
    bare = build_gateways(sim2, ExperimentConfig(policy="naive"))
    assert bare.encoder.encoder.shim_overhead == SHIM_SIZE
