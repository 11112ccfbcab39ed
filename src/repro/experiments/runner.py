"""End-to-end experiment runner.

Builds the Fig. 3 topology::

    server ──LAN── encoder-gw ══1 MB/s lossy══ decoder-gw ──LAN── client

and drives a list of file retrievals over it (:func:`run_fetches`, the
one run sequence every experiment, campaign and checker calls);
:func:`run_transfer` is the one-fetch case and returns a
:class:`~repro.metrics.collectors.TransferResult`.  With
``config.policy is None`` the gateways are replaced by plain forwarding
nodes, producing the no-DRE baseline every ratio in Figs. 10–12 is
normalised against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..app.transfer import FileClient, FileServer, TransferOutcome
from ..core.fingerprint import FingerprintScheme, anchor_memo_stats
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
from ..verify.oracles import InvariantViolation, VerificationHarness
from ..workload.corpus import corpus_object
from .config import LAN_BANDWIDTH, LAN_DELAY, ExperimentConfig

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
    profiler: Optional[StageProfiler] = None
    #: anchor_memo_stats() at build time, when profiling: the memo is
    #: process-wide, the profile reports what this run added to it.
    anchor_memo_before: Optional[Dict[str, int]] = None
    telemetry: Optional[Telemetry] = None
    #: repro.metrics.spans.SpanRecorder when config.spans.
    spans: Optional[SpanRecorder] = None
    #: repro.verify.oracles.VerificationHarness when config.verify.
    verifier: object = None


def build_testbed(config: ExperimentConfig) -> Testbed:
    """Construct the simulator, hosts, links and (optionally) gateways."""
    profiler = profiler_if(config.profile)
    sim = Simulator()
    rng = RngRegistry(config.seed)
    telemetry = telemetry_if(config.telemetry, sim,
                             **config.telemetry_kwargs)
    span_recorder = spans_if(config.spans, sim, **config.spans_kwargs)
    # The run's one event log: the nodes' and gateways' event sites
    # write to it, and a violation dumps it.
    recorder = telemetry.recorder if telemetry is not None else None

    verifier = None
    if config.verify and config.dre_enabled:
        if recorder is None:
            # Standalone flight recorder so a violation still carries
            # the recent event history even with telemetry off.
            recorder = FlightRecorder()
        verifier = VerificationHarness(sim, recorder=recorder)
        verifier.spans = span_recorder
        if telemetry is not None:
            telemetry.register_verifier(verifier)
    if recorder is not None:
        # Flight-recorder rows resolve packet ids back to trace/span
        # ids, so a post-mortem dump points into the span export.
        recorder.spans = span_recorder

    client = Host(sim, "client", CLIENT_ADDR)
    server = Host(sim, "server", SERVER_ADDR)

    if config.dre_enabled:
        scheme = FingerprintScheme(kind=config.fingerprint_kind)
        gateways: Optional[GatewayPair] = GatewayPair.create(
            sim, policy=config.policy, scheme=scheme,
            data_dst=CLIENT_ADDR,
            cache_bytes=config.cache_bytes,
            cache_max_packets=config.cache_max_packets,
            cache_eviction=config.cache_eviction,
            cache_shards=config.cache_shards,
            cache_admission=config.cache_admission,
            encoder_address=ENCODER_ADDR, decoder_address=DECODER_ADDR,
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
        enc_node = Node(sim, "fwd-node-1")
        dec_node = Node(sim, "fwd-node-2")
    for node in (client, server, enc_node, dec_node):
        node.recorder = recorder

    # server <-> encoder LAN
    lan_s_fwd = Link(sim, LAN_BANDWIDTH, LAN_DELAY,
                     rng=rng.stream("lan_s_fwd"), name="lan-server-fwd")
    lan_s_rev = Link(sim, LAN_BANDWIDTH, LAN_DELAY,
                     rng=rng.stream("lan_s_rev"), name="lan-server-rev")
    # encoder <-> decoder: the constrained wireless segment
    bott_fwd = Link(sim, config.bandwidth, config.bottleneck_delay,
                    loss_rate=config.loss_rate,
                    corrupt_rate=config.corrupt_rate,
                    reorder_rate=config.reorder_rate,
                    rng=rng.stream("bottleneck_fwd"), name="bottleneck-fwd",
                    telemetry=telemetry, spans=span_recorder)
    bott_rev = Link(sim, config.bandwidth, config.bottleneck_delay,
                    rng=rng.stream("bottleneck_rev"), name="bottleneck-rev",
                    telemetry=telemetry, spans=span_recorder)
    # decoder <-> client LAN
    lan_c_fwd = Link(sim, LAN_BANDWIDTH, LAN_DELAY,
                     rng=rng.stream("lan_c_fwd"), name="lan-client-fwd")
    lan_c_rev = Link(sim, LAN_BANDWIDTH, LAN_DELAY,
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
                   gateways=gateways, profiler=profiler,
                   anchor_memo_before=(anchor_memo_stats()
                                       if profiler is not None else None),
                   telemetry=telemetry, spans=span_recorder,
                   verifier=verifier)


@dataclass(frozen=True)
class Fetch:
    """One retrieval of a run: which object, and when it starts."""

    name: str = FILE_NAME
    #: Absolute start time; a time that is not in the future starts the
    #: fetch inline, before the event loop runs.
    at: float = 0.0
    #: When set, start this long after the previous fetch of the list
    #: ended instead (the pause between a user's connections).
    gap: Optional[float] = None
    #: Abort the connection if the fetch is still running this long
    #: after it started — the user who gives up closes the tab.
    timeout: Optional[float] = None


@dataclass
class FetchRun:
    """What :func:`run_fetches` hands back."""

    #: Outcomes of the fetches that started, in start order.
    outcomes: List[TransferOutcome] = field(default_factory=list)
    #: Per fetch of the list: bytes offered to the forward bottleneck
    #: between its start and its end (0 for one that never ended).
    link_bytes: List[int] = field(default_factory=list)
    timeouts: int = 0
    #: Set only under ``capture_violation``; the rest is the partial run.
    violation: Optional[InvariantViolation] = None


def run_fetches(testbed: Testbed, config: ExperimentConfig, files,
                fetches: Sequence[Fetch],
                on_data: Optional[Callable[[int, bytes], None]] = None,
                on_done: Optional[Callable[[int, TransferOutcome],
                                           None]] = None,
                capture_violation: bool = False) -> FetchRun:
    """Serve ``files`` and run ``fetches`` over ``testbed`` to the end.

    The one run sequence: install the server on ``files`` (anything
    with ``.get``), start each fetch at its time, arm byte integrity
    per fetch when the testbed carries a verifier, abort a fetch at its
    timeout, stop the simulator when the last fetch ends, run to
    ``config.time_limit`` and finalize the verifier over every outcome.
    The caller builds the testbed, so whatever it arms on it (faults, a
    flow pool, a patched policy) is in place before the first packet.
    ``on_data(index, chunk)`` / ``on_done(index, outcome)`` observe the
    fetch at that index of the list.  An :class:`InvariantViolation`
    propagates unless ``capture_violation``, which returns it with the
    partial run instead.
    """
    sim = testbed.sim
    verifier = testbed.verifier
    forward = testbed.bottleneck_forward.stats
    check_content = config.verify_content or config.verify
    FileServer(testbed.server_stack, files)
    client = FileClient(testbed.client_stack, sim)
    total = len(fetches)
    run = FetchRun(link_bytes=[0] * total)
    outcomes = run.outcomes
    ended = 0

    def expire(outcome: TransferOutcome, conns: list) -> None:
        if outcome.finished_at is None:
            run.timeouts += 1
            conns[0].abort("fetch_timeout")

    def start(index: int) -> None:
        fetch = fetches[index]
        data = files.get(fetch.name)
        before = forward.bytes_offered
        check = verifier.integrity_sink(data) if verifier is not None else None
        sink = check            # None when nobody watches: no per-chunk call
        if on_data is not None:
            def sink(chunk: bytes) -> None:
                if check is not None:
                    check(chunk)
                on_data(index, chunk)

        def done(outcome: TransferOutcome) -> None:
            nonlocal ended
            run.link_bytes[index] = forward.bytes_offered - before
            if on_done is not None:
                on_done(index, outcome)
            ended += 1
            if ended == total:
                sim.stop()
            elif index + 1 < total and fetches[index + 1].gap is not None:
                sim.post_after(fetches[index + 1].gap, start, index + 1)

        if fetch.timeout is None:
            conn_sink = None
        else:
            conns: list = []
            conn_sink = conns.append
        outcome = client.fetch(
            SERVER_ADDR, fetch.name, expected_size=len(data),
            expected_content=data if check_content else None,
            on_data=sink, on_done=done, conn_sink=conn_sink)
        outcomes.append(outcome)
        if conn_sink is not None:
            sim.post_after(fetch.timeout, expire, outcome, conns)

    for index, fetch in enumerate(fetches):
        if fetch.gap is not None and index:
            continue            # started by the previous fetch's end
        if fetch.at > sim.now:
            sim.post(fetch.at, start, index)
        else:
            start(index)
    try:
        sim.run(until=config.time_limit)
        if verifier is not None:
            verifier.finalize(outcomes)
    except InvariantViolation as violation:
        if not capture_violation:
            raise
        run.violation = violation
    return run


def run_transfer(config: ExperimentConfig) -> TransferResult:
    """Run one complete retrieval described by ``config``."""
    testbed = build_testbed(config)
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    run = run_fetches(testbed, config, {FILE_NAME: data}, [Fetch()])
    return collect_result(testbed, run.outcomes[0], config)


def collect_result(testbed: Testbed, outcome,
                   config: ExperimentConfig) -> TransferResult:
    """Assemble the :class:`TransferResult` of a run from its testbed
    and the outcome of its (first) fetch — also from a partial run that
    ended at a captured violation."""
    sim = testbed.sim
    server_stats = [conn.stats
                    for conn in testbed.server_stack.connections()]

    def server_total(counter: str) -> int:
        return sum(getattr(stats, counter) for stats in server_stats)

    forward = testbed.bottleneck_forward.stats
    avg_packet = (forward.bytes_offered / forward.packets_offered
                  if forward.packets_offered else 0.0)

    profile = None
    if testbed.profiler is not None:
        profile = testbed.profiler.as_dict()
        before, after = testbed.anchor_memo_before, anchor_memo_stats()
        profile["anchor_memo"] = {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
            "evictions": after["evictions"] - before["evictions"],
            "bytes": after["bytes"]}

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
        profile=profile,
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
