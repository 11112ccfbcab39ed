"""Integration tests: gateway crash/restart mid-transfer.

A decoder gateway restarting with a cold cache is the cache-level
analogue of the paper's §IV packet-loss pathology: every region-bearing
packet that references pre-crash entries is undecodable, and no
per-packet policy can repair it (the entries are simply gone).  The
resilience layer (epochs + resync + heartbeats) must turn that into a
bounded hiccup; without it the transfer either stalls outright (naive)
or limps home on raw TCP retransmissions after a storm of undecodable
drops (tcp_seq).

The workload is generated with *long-range* redundancy: references
point at long-ACKed segments that TCP will never retransmit, so a
cold decoder cache cannot be rebuilt by the data stream itself — the
divergence is persistent unless explicitly repaired.
"""

from repro.experiments import ExperimentConfig
from repro.experiments.runner import (FILE_NAME, Fetch, build_testbed,
                                      run_fetches)
from repro.sim.faults import (FaultInjector, GatewayFaultLog,
                              match_nth_control,
                              schedule_asymmetric_eviction,
                              schedule_gateway_restart)
from repro.workload.redundancy import (DependencyFileSpec,
                                       generate_dependency_file)

#: history_window/locality_scale push matches far behind the TCP window:
#: the decoder needs its *old* cache entries, not the in-flight ones.
DATA = generate_dependency_file(DependencyFileSpec(
    size=250 * 1460, avg_dependencies=3.0, redundancy=0.5,
    history_window=300, locality_scale=100.0, seed=7))

#: Fast protocol tunables so the whole scenario fits in <1 s simulated.
RESILIENCE_KWARGS = dict(heartbeat_interval=0.02, heartbeat_timeout=0.06,
                         resync_timeout=0.05, resync_grace=0.02,
                         watchdog_window=8)


def build(policy="tcp_seq", resilience=True, time_limit=30.0, seed=5):
    config = ExperimentConfig(
        corpus="file1", policy=policy, seed=seed,
        tcp_max_retries=8, tcp_min_rto=0.05, tcp_max_rto=0.5,
        time_limit=time_limit, resilience=resilience,
        resilience_kwargs=RESILIENCE_KWARGS if resilience else {})
    testbed = build_testbed(config)

    def fetch():
        """Run the transfer (after the test armed its faults)."""
        return run_fetches(testbed, config, {FILE_NAME: DATA},
                           [Fetch()]).outcomes[0]

    return testbed, fetch


class TestDecoderRestartWithResilience:
    def test_transfer_completes_and_compression_recovers(self):
        """The acceptance scenario: restart mid-transfer, connection
        completes, and the post-resync bytes-sent ratio is back < 1."""
        testbed, fetch = build(policy="tcp_seq", resilience=True)
        log = GatewayFaultLog()
        schedule_gateway_restart(testbed.sim, testbed.gateways.decoder,
                                 at=0.12, downtime=0.1, log=log)
        outcome = fetch()

        assert outcome.completed
        assert log.crashes == [0.12]

        enc = testbed.gateways.encoder
        dec = testbed.gateways.decoder
        assert dec.resilience.stats.resyncs_completed >= 1
        assert dec.resilience.stats.time_to_resync is not None
        # The crash was fully repaired: no lingering resync, heartbeat
        # state healthy again.
        assert not dec.resilience.resyncing
        assert not enc.resilience.stats.degraded

        # Compression is effective again after the resync: bytes sent
        # on the constrained link over bytes entering the encoder,
        # counted from the flush+bump snapshot onwards.
        marker = enc.resilience.resync_marker
        assert marker is not None
        before = enc.stats.bytes_before - marker[0]
        after = enc.stats.bytes_after - marker[1]
        assert before > 0
        assert after / before < 1.0

    def test_downtime_degrades_encoder_then_recovers(self):
        """The 0.1 s outage exceeds the heartbeat timeout: the encoder
        must fall back to pass-through rather than feed a dead peer,
        then recover when heartbeat acks resume."""
        testbed, fetch = build(policy="tcp_seq", resilience=True)
        schedule_gateway_restart(testbed.sim, testbed.gateways.decoder,
                                 at=0.12, downtime=0.1)
        outcome = fetch()
        assert outcome.completed
        enc = testbed.gateways.encoder
        assert enc.resilience.stats.degraded_entries >= 1
        assert enc.resilience.stats.degraded_time > 0
        assert not enc.resilience.stats.degraded        # recovered

    def test_short_outage_caught_by_watchdog(self):
        """A restart faster than the heartbeat timeout restores epoch 0
        on both sides — the epoch stamp cannot flag it.  The
        undecodable-rate watchdog must trip instead."""
        testbed, fetch = build(policy="tcp_seq", resilience=True)
        schedule_gateway_restart(testbed.sim, testbed.gateways.decoder,
                                 at=0.12, downtime=0.01)
        outcome = fetch()
        assert outcome.completed
        dec = testbed.gateways.decoder
        assert dec.resilience.stats.watchdog_trips >= 1
        assert dec.resilience.stats.resyncs_completed >= 1

    def test_resync_survives_control_loss(self):
        """The handshake itself rides the lossy links: losing the first
        request (and, separately, the first ack) must only cost a
        retry, not the recovery."""
        for kind, attr in (("cache_resync", "bottleneck_reverse"),
                           ("cache_resync_ack", "bottleneck_forward")):
            testbed, fetch = build(policy="tcp_seq", resilience=True)
            schedule_gateway_restart(testbed.sim, testbed.gateways.decoder,
                                     at=0.12, downtime=0.01)
            injector = FaultInjector(getattr(testbed, attr))
            injector.drop_when(match_nth_control(kind, 1))
            outcome = fetch()
            assert outcome.completed, kind
            stats = testbed.gateways.decoder.resilience.stats
            assert stats.resyncs_completed >= 1, kind
            assert stats.resync_retries >= 1, kind
            assert injector.log.dropped, kind

    def test_asymmetric_eviction_repaired(self):
        """One-sided eviction at the decoder: no packet is ever lost and
        no epoch changes, yet references start missing.  Watchdog path."""
        testbed, fetch = build(policy="tcp_seq", resilience=True)
        log = GatewayFaultLog()
        schedule_asymmetric_eviction(testbed.sim, testbed.gateways.decoder,
                                     at=0.15, fraction=0.9, log=log)
        outcome = fetch()
        assert outcome.completed
        assert log.evictions and log.evictions[0][1] > 0
        dec = testbed.gateways.decoder
        assert dec.resilience.stats.watchdog_trips >= 1
        assert dec.resilience.stats.resyncs_completed >= 1


class TestDecoderRestartWithoutResilience:
    def test_tcp_seq_suffers_persistent_undecodable_drops(self):
        """Without the layer the decoder silently decodes against a cold
        cache: every long-range reference misses, persistently."""
        testbed, fetch = build(policy="tcp_seq", resilience=False)
        schedule_gateway_restart(testbed.sim, testbed.gateways.decoder,
                                 at=0.12, downtime=0.1)
        fetch()
        dec = testbed.gateways.decoder
        assert dec.stats.undecodable_dropped > 30
        assert dec.stats.desync_dropped == 0     # no layer, no gating

    def test_naive_stalls_outright_resilience_unstalls(self):
        """With circular-dependency-prone encoding the cold cache is
        fatal: TCP exhausts its retries.  The identical scenario with
        the layer enabled completes."""
        testbed, fetch = build(policy="naive", resilience=False)
        schedule_gateway_restart(testbed.sim, testbed.gateways.decoder,
                                 at=0.12, downtime=0.1)
        outcome = fetch()
        assert not outcome.completed

        testbed, fetch = build(policy="naive", resilience=True)
        schedule_gateway_restart(testbed.sim, testbed.gateways.decoder,
                                 at=0.12, downtime=0.1)
        outcome = fetch()
        assert outcome.completed
        assert testbed.gateways.decoder.resilience.stats.resyncs_completed >= 1

    def test_resilience_restores_near_baseline_download_time(self):
        """Headline number: the restart costs ~5x download time without
        the layer and well under 2x with it."""
        baseline, fetch = build(policy="tcp_seq", resilience=False)
        outcome = fetch()
        assert outcome.completed
        fault_free = outcome.duration

        with_layer, fetch = build(policy="tcp_seq", resilience=True)
        schedule_gateway_restart(with_layer.sim, with_layer.gateways.decoder,
                                 at=0.12, downtime=0.1)
        outcome = fetch()
        assert outcome.completed
        repaired = outcome.duration

        without, fetch = build(policy="tcp_seq", resilience=False)
        schedule_gateway_restart(without.sim, without.gateways.decoder,
                                 at=0.12, downtime=0.1)
        outcome = fetch()
        assert outcome.completed
        unrepaired = outcome.duration

        assert repaired / fault_free < 2.0
        assert unrepaired / fault_free > 2.0
        assert repaired < unrepaired
