"""End-to-end experiment runner.

Builds the Fig. 3 topology::

    server ──LAN── encoder-gw ══1 MB/s lossy══ decoder-gw ──LAN── client

runs one file retrieval over it, and returns a
:class:`~repro.metrics.collectors.TransferResult`.  With
``config.policy is None`` the gateways are replaced by plain forwarding
nodes, producing the no-DRE baseline every ratio in Figs. 10–12 is
normalised against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..app.transfer import FileClient, FileServer
from ..core.fingerprint import FingerprintScheme
from ..gateway.pair import GatewayPair
from ..gateway.resilience import ResilienceConfig
from ..metrics.collectors import TransferResult
from ..metrics.profiling import StageProfiler, profiler_if
from ..metrics.spans import SpanRecorder, spans_if
from ..metrics.telemetry import FlightRecorder, Telemetry, telemetry_if
from ..net.tcp import TCPStack
from ..sim.engine import Simulator
from ..sim.link import Link
from ..sim.node import Host, Node
from ..sim.rng import RngRegistry
from ..sim.trace import Tracer
from ..workload.corpus import corpus_object
from .config import ExperimentConfig

CLIENT_ADDR = "10.0.1.1"
SERVER_ADDR = "10.0.2.1"
ENCODER_ADDR = "10.255.0.1"
DECODER_ADDR = "10.255.0.2"
FILE_NAME = "object"


@dataclass
class Testbed:
    """A fully wired topology, exposed for tests and examples."""

    sim: Simulator
    client: Host
    server: Host
    client_stack: TCPStack
    server_stack: TCPStack
    bottleneck_forward: Link
    bottleneck_reverse: Link
    gateways: Optional[GatewayPair]
    tracer: Tracer
    profiler: Optional[StageProfiler] = None
    telemetry: Optional[Telemetry] = None
    #: repro.metrics.spans.SpanRecorder when config.spans.
    spans: Optional[SpanRecorder] = None
    #: repro.verify.oracles.VerificationHarness when config.verify.
    verifier: object = None


def build_testbed(config: ExperimentConfig,
                  tracer: Optional[Tracer] = None) -> Testbed:
    """Construct the simulator, hosts, links and (optionally) gateways."""
    profiler = profiler_if(config.profile)
    sim = Simulator(profiler=profiler)
    rng = RngRegistry(config.seed)
    if tracer is None:
        tracer = Tracer(enabled=config.trace)
    tracer.bind_clock(lambda: sim.now)
    telemetry = telemetry_if(config.telemetry, sim,
                             **config.telemetry_kwargs)
    span_recorder = spans_if(config.spans, sim, **config.spans_kwargs)
    if telemetry is not None:
        # Existing tracer.emit call sites feed the flight recorder even
        # while full tracing stays off.
        tracer.sink = telemetry.trace_sink()

    verifier = None
    if config.verify and config.dre_enabled:
        # Imported here (not at module top): repro.verify.oracles is
        # import-independent of this module, but keeping the runner free
        # of an eager verify import lets repro.verify.{differential,
        # fuzz} import the runner without a cycle.
        from ..verify.oracles import VerificationHarness

        if telemetry is not None:
            recorder = telemetry.recorder
        else:
            # Standalone flight recorder so a violation still carries
            # the recent event history even with telemetry off.
            recorder = FlightRecorder()
            tracer.sink = recorder.record
        recorder.spans = span_recorder
        verifier = VerificationHarness(sim, recorder=recorder,
                                       **config.verify_kwargs)
        verifier.spans = span_recorder
        if telemetry is not None:
            telemetry.register_verifier(verifier)
    if telemetry is not None and span_recorder is not None:
        # Flight-recorder rows resolve packet ids back to trace/span
        # ids, so a post-mortem dump points into the span export.
        telemetry.recorder.spans = span_recorder

    client = Host(sim, "client", CLIENT_ADDR, tracer)
    server = Host(sim, "server", SERVER_ADDR, tracer)

    if config.dre_enabled:
        scheme = FingerprintScheme(window=config.fingerprint_window,
                                   zero_bits=config.fingerprint_zero_bits,
                                   kind=config.fingerprint_kind,
                                   selection=config.fingerprint_selection)
        gateways: Optional[GatewayPair] = GatewayPair.create(
            sim, policy=config.policy, scheme=scheme,
            data_dst=CLIENT_ADDR,
            cache_bytes=config.cache_bytes,
            cache_max_packets=config.cache_max_packets,
            cache_eviction=config.cache_eviction,
            cache_shards=config.cache_shards,
            cache_admission=config.cache_admission,
            encoder_address=ENCODER_ADDR, decoder_address=DECODER_ADDR,
            tracer=tracer,
            resilience=(ResilienceConfig(**config.resilience_kwargs)
                        if config.resilience else None),
            telemetry=telemetry,
            verifier=verifier,
            spans=span_recorder,
            **config.policy_kwargs)
        enc_node: Node = gateways.encoder
        dec_node: Node = gateways.decoder
        if profiler is not None:
            gateways.encoder.encoder.profiler = profiler
            gateways.decoder.decoder.profiler = profiler
    else:
        gateways = None
        enc_node = Node(sim, "fwd-node-1", tracer)
        dec_node = Node(sim, "fwd-node-2", tracer)

    # server <-> encoder LAN
    lan_s_fwd = Link(sim, config.lan_bandwidth, config.lan_delay,
                     rng=rng.stream("lan_s_fwd"), name="lan-server-fwd")
    lan_s_rev = Link(sim, config.lan_bandwidth, config.lan_delay,
                     rng=rng.stream("lan_s_rev"), name="lan-server-rev")
    # encoder <-> decoder: the constrained wireless segment
    bott_fwd = Link(sim, config.bandwidth, config.bottleneck_delay,
                    loss_rate=config.loss_rate,
                    corrupt_rate=config.corrupt_rate,
                    reorder_rate=config.reorder_rate,
                    rng=rng.stream("bottleneck_fwd"), name="bottleneck-fwd",
                    telemetry=telemetry, spans=span_recorder)
    bott_rev = Link(sim, config.bandwidth, config.bottleneck_delay,
                    loss_rate=config.reverse_loss_rate,
                    rng=rng.stream("bottleneck_rev"), name="bottleneck-rev",
                    telemetry=telemetry, spans=span_recorder)
    # decoder <-> client LAN
    lan_c_fwd = Link(sim, config.lan_bandwidth, config.lan_delay,
                     rng=rng.stream("lan_c_fwd"), name="lan-client-fwd")
    lan_c_rev = Link(sim, config.lan_bandwidth, config.lan_delay,
                     rng=rng.stream("lan_c_rev"), name="lan-client-rev")

    lan_s_fwd.connect(enc_node.receive)
    bott_fwd.connect(dec_node.receive)
    lan_c_fwd.connect(client.receive)
    lan_c_rev.connect(dec_node.receive)
    bott_rev.connect(enc_node.receive)
    lan_s_rev.connect(server.receive)

    server.set_default_route(lan_s_fwd)
    enc_node.add_route(SERVER_ADDR, lan_s_rev)
    enc_node.set_default_route(bott_fwd)          # towards client / decoder
    dec_node.add_route(SERVER_ADDR, bott_rev)
    dec_node.add_route(ENCODER_ADDR, bott_rev)
    dec_node.set_default_route(lan_c_fwd)
    client.set_default_route(lan_c_rev)

    tcp_config = config.tcp_config()
    client_stack = TCPStack(sim, client, tcp_config, telemetry=telemetry,
                            spans=span_recorder)
    server_stack = TCPStack(sim, server, tcp_config, telemetry=telemetry,
                            spans=span_recorder)

    if telemetry is not None:
        telemetry.start()
    if verifier is not None:
        verifier.watch_links(bott_fwd, bott_rev)
        verifier.start()

    return Testbed(sim=sim, client=client, server=server,
                   client_stack=client_stack, server_stack=server_stack,
                   bottleneck_forward=bott_fwd, bottleneck_reverse=bott_rev,
                   gateways=gateways, tracer=tracer, profiler=profiler,
                   telemetry=telemetry, spans=span_recorder,
                   verifier=verifier)


def run_transfer(config: ExperimentConfig,
                 tracer: Optional[Tracer] = None) -> TransferResult:
    """Run one complete retrieval described by ``config``."""
    testbed = build_testbed(config, tracer)
    sim = testbed.sim

    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    FileServer(testbed.server_stack, {FILE_NAME: data})
    client_app = FileClient(testbed.client_stack, sim)

    on_data = None
    if testbed.verifier is not None:
        # Arm the byte-integrity oracle: every in-order chunk the client
        # receives is checked against the source object immediately.
        testbed.verifier.arm_integrity(data)
        on_data = testbed.verifier.on_deliver
    outcome = client_app.fetch(
        SERVER_ADDR, FILE_NAME, expected_size=len(data),
        expected_content=(data if config.verify_content or config.verify
                          else None),
        on_data=on_data,
        on_done=lambda _outcome: sim.stop())
    sim.run(until=config.time_limit)
    if testbed.verifier is not None:
        testbed.verifier.finalize(outcome)
    return collect_result(testbed, outcome, config)


def collect_result(testbed: Testbed, outcome,
                   config: ExperimentConfig) -> TransferResult:
    """Assemble the :class:`TransferResult` for a finished run.

    Split out of :func:`run_transfer` so drivers that must own the
    event loop themselves — the fuzz harness, the chaos campaign
    runner — can still produce the same result object (including the
    telemetry export with its post-mortem reason) after their custom
    run/fault/verify sequence.
    """
    sim = testbed.sim
    server_stats = [conn.stats
                    for conn in testbed.server_stack.connections()]

    def server_total(counter: str) -> int:
        return sum(getattr(stats, counter) for stats in server_stats)

    forward = testbed.bottleneck_forward.stats
    avg_packet = (forward.bytes_offered / forward.packets_offered
                  if forward.packets_offered else 0.0)

    telemetry_export = None
    if testbed.telemetry is not None:
        if outcome.stalled:
            reason = "stall"
        elif not outcome.completed:
            reason = "time_limit"
        elif (testbed.gateways is not None
              and testbed.gateways.decoder.resilience is not None
              and testbed.gateways.decoder.resilience.stats.watchdog_trips):
            reason = "watchdog"
        else:
            reason = "completed"
        # The flight recorder dumps automatically on the post-mortem
        # endings (stall / watchdog trip / time-limit expiry).
        telemetry_export = testbed.telemetry.export(
            reason=reason, dump_flight_recorder=(reason != "completed"))

    return TransferResult(
        outcome=outcome,
        bottleneck_forward=forward,
        bottleneck_reverse=testbed.bottleneck_reverse.stats,
        encoder_stats=(testbed.gateways.encoder.stats
                       if testbed.gateways else None),
        decoder_stats=(testbed.gateways.decoder.stats
                       if testbed.gateways else None),
        encoder_resilience=(testbed.gateways.encoder.resilience.stats
                            if testbed.gateways
                            and testbed.gateways.encoder.resilience
                            else None),
        decoder_resilience=(testbed.gateways.decoder.resilience.stats
                            if testbed.gateways
                            and testbed.gateways.decoder.resilience
                            else None),
        sim_time=sim.now,
        dre_enabled=config.dre_enabled,
        policy=config.policy or "none",
        seed=config.seed,
        server_retransmissions=server_total("retransmissions"),
        server_timeouts=server_total("timeouts"),
        server_timeouts_lost_retransmit=server_total(
            "timeouts_lost_retransmit"),
        server_timeouts_no_feedback=server_total("timeouts_no_feedback"),
        server_timeouts_below_dupthresh=server_total(
            "timeouts_below_dupthresh"),
        server_lost_retransmits=server_total("lost_retransmits"),
        avg_data_packet_size=avg_packet,
        data_packets_sent=forward.packets_offered,
        profile=(testbed.profiler.as_dict()
                 if testbed.profiler is not None else None),
        telemetry=telemetry_export,
        spans=(testbed.spans.export()
               if testbed.spans is not None else None),
    )


def run_paired(config: ExperimentConfig,
               baseline_config: Optional[ExperimentConfig] = None
               ) -> tuple:
    """Run the DRE transfer and its no-DRE baseline (same seed)."""
    if not config.dre_enabled:
        raise ValueError("run_paired needs a DRE-enabled config")
    if baseline_config is None:
        baseline_config = config.with_updates(policy=None, policy_kwargs={})
    return run_transfer(config), run_transfer(baseline_config)
