"""End-to-end experiment runner.

Builds the Fig. 3 topology::

    server ──LAN── encoder-gw ══1 MB/s lossy══ decoder-gw ──LAN── client

with :func:`build_path` and drives a list of file retrievals over it
(:func:`run_fetches`, the one run sequence every experiment, campaign
and checker calls); :func:`run_transfer` is the one-fetch case and
returns a :class:`~repro.metrics.collectors.TransferResult`.  With
``config.policy is None`` the gateways are replaced by plain forwarding
nodes, producing the no-DRE baseline every ratio in Figs. 10–12 is
normalised against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, cast

from ..app.transfer import FileClient, FileServer, TransferOutcome
from ..core.cache import ByteCache
from ..core.fingerprint import FingerprintScheme, anchor_memo_stats
from ..core.policies import make_policy_pair
from ..core.shardcache import ShardedByteCache
from ..gateway.middlebox import DecoderGateway, EncoderGateway
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
FILE_NAME = "object"


@dataclass
class LinkSpec:
    """One hop's two links, forward (server -> client) and reverse:
    named ``{name}-fwd`` / ``{name}-rev``, drawing from the rng
    ``streams`` in that order, each with its own
    :class:`~repro.sim.link.Link` impairments (``loss_rate``, ...)."""

    bandwidth: float
    delay: float
    name: str
    streams: Tuple[str, str]
    forward: Dict[str, Any] = field(default_factory=dict)
    reverse: Dict[str, Any] = field(default_factory=dict)


@dataclass
class GatewayPair:
    """The encoder and decoder gateway that bracket a path's lossy
    segment, built by :func:`build_gateways`."""

    encoder: EncoderGateway
    decoder: DecoderGateway


@dataclass
class Path:
    """A wired server-to-client path: what :func:`build_path` returns
    and :func:`repro.sim.faults.arm_injection` arms faults on."""

    sim: Simulator
    server: Host
    client: Host
    #: (forward, reverse) link of every hop, server end first.
    links: List[Tuple[Link, Link]]
    bottleneck_forward: Link
    bottleneck_reverse: Link
    #: The DRE pair among the path's nodes, or None.
    gateways: Optional[GatewayPair]


def build_gateways(sim: Simulator, config: ExperimentConfig) -> GatewayPair:
    """The DRE pair ``config`` describes, encoding towards the client.

    Both gateways share one fingerprint scheme and one policy pair
    (``config.policy`` with ``config.policy_kwargs``) and get
    identically built caches: cache symmetry is what DRE relies on
    (§III-B).  ``cache_shards > 0`` selects the shared-cache serving
    configuration, one memory-bounded sharded cache per direction;
    probabilistic admission applies either way.  ``config.resilience``
    arms the failure-recovery layer (epochs, resync, heartbeats) on
    both.
    """
    scheme = FingerprintScheme()
    resilience = (ResilienceConfig(**config.resilience_kwargs)
                  if config.resilience else None)
    encoder_policy, decoder_policy = make_policy_pair(
        config.policy, **config.policy_kwargs)

    def build_cache():
        if config.cache_shards > 0:
            return ShardedByteCache(
                config.cache_bytes, n_shards=config.cache_shards,
                max_packets=config.cache_max_packets,
                eviction=config.cache_eviction,
                admission=config.cache_admission)
        return ByteCache(config.cache_bytes, config.cache_max_packets,
                         config.cache_eviction,
                         admission=config.cache_admission)

    encoder = EncoderGateway(
        sim, "encoder-gw", "10.255.0.1", scheme, build_cache(),
        encoder_policy, data_dst=CLIENT_ADDR, resilience=resilience)
    decoder = DecoderGateway(
        sim, "decoder-gw", "10.255.0.2", scheme, build_cache(),
        decoder_policy, data_dst=CLIENT_ADDR, resilience=resilience)
    encoder.set_peer(decoder.address)
    decoder.set_peer(encoder.address)
    return GatewayPair(encoder, decoder)


def build_path(sim: Simulator, rng: RngRegistry, server: Host,
               hops: Sequence[Tuple[LinkSpec, Node]], *,
               bottleneck: int) -> Path:
    """Wire ``server`` to the client host that ends ``hops``.

    ``hops`` runs from the server to the client: each is the
    :class:`LinkSpec` of a hop and the node at its client end (a
    forwarding node, a gateway, a TCP proxy or the client host).  Both
    directions of every hop are made and connected.  Every node sends
    towards the client by default and the client towards the server; a
    node between them routes each addressed node on its server side
    back that way.  ``hops[bottleneck]`` is the hop the observers
    watch.  The path's ``gateways`` are the encoder and decoder
    gateway among the hop nodes, server side first.
    """
    nodes = [server] + [node for _, node in hops]
    links: List[Tuple[Link, Link]] = []
    for index, (spec, node) in enumerate(hops):
        forward, reverse = [
            Link(sim, spec.bandwidth, spec.delay, rng=rng.stream(stream),
                 name=f"{spec.name}-{tag}", **impairments)
            for stream, tag, impairments in zip(
                spec.streams, ("fwd", "rev"), (spec.forward, spec.reverse))]
        forward.connect(node.receive)
        reverse.connect(nodes[index].receive)
        links.append((forward, reverse))
        nodes[index].set_default_route(forward)
        if node is not nodes[-1]:
            for upstream in nodes[:index + 1]:
                address = getattr(upstream, "address", None)
                if address is not None:
                    node.add_route(address, reverse)
    nodes[-1].set_default_route(links[-1][1])
    dre = [node for node in nodes
           if isinstance(node, (EncoderGateway, DecoderGateway))]
    return Path(sim, server, cast(Host, nodes[-1]), links, *links[bottleneck],
                GatewayPair(*dre) if dre else None)


@dataclass
class Testbed(Path):
    """The Fig. 3 path with its TCP stacks and observers."""

    client_stack: TCPStack
    server_stack: TCPStack
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
    """Construct the simulator, hosts, links and (optionally) gateways,
    then attach the observers ``config`` arms (:func:`_observe`)."""
    sim = Simulator()
    client = Host(sim, "client", CLIENT_ADDR)
    server = Host(sim, "server", SERVER_ADDR)
    if config.dre_enabled:
        gateways = build_gateways(sim, config)
        enc_node: Node = gateways.encoder
        dec_node: Node = gateways.decoder
    else:
        enc_node = Node(sim, "fwd-node-1")
        dec_node = Node(sim, "fwd-node-2")

    path = build_path(sim, RngRegistry(config.seed), server, [
        (LinkSpec(LAN_BANDWIDTH, LAN_DELAY, "lan-server",
                  ("lan_s_fwd", "lan_s_rev")), enc_node),
        # encoder <-> decoder: the constrained wireless segment
        (LinkSpec(config.bandwidth, config.bottleneck_delay, "bottleneck",
                  ("bottleneck_fwd", "bottleneck_rev"),
                  forward={"loss_rate": config.loss_rate,
                           "corrupt_rate": config.corrupt_rate,
                           "reorder_rate": config.reorder_rate}), dec_node),
        (LinkSpec(LAN_BANDWIDTH, LAN_DELAY, "lan-client",
                  ("lan_c_fwd", "lan_c_rev")), client),
    ], bottleneck=1)

    tcp_config = config.tcp_config()
    testbed = Testbed(**vars(path),
                      client_stack=TCPStack(sim, client, tcp_config),
                      server_stack=TCPStack(sim, server, tcp_config))
    _observe(testbed, config, (client, server, enc_node, dec_node))
    return testbed


def _observe(testbed: Testbed, config: ExperimentConfig,
             nodes: Sequence[Node]) -> None:
    """Attach every observer ``config`` arms to the built ``testbed``.

    The one place telemetry, spans, the verifier, the profiler and the
    flight recorder reach the components, whose hot paths keep a single
    ``is not None`` check per hook.  Gauges register in the order of the
    telemetry/v1 series: verifier, encoder, decoder, perceived loss,
    bottleneck forward then reverse (connections follow as they open).
    """
    sim, gateways = testbed.sim, testbed.gateways
    telemetry = telemetry_if(config.telemetry, sim,
                             **config.telemetry_kwargs)
    spans = spans_if(config.spans, sim, **config.spans_kwargs)
    profiler = profiler_if(config.profile)
    bottleneck = (testbed.bottleneck_forward, testbed.bottleneck_reverse)
    # The run's one event log: the nodes' and gateways' event sites
    # write to it, and a violation dumps it.
    recorder = telemetry.recorder if telemetry is not None else None

    verifier = None
    if config.verify and gateways is not None:
        if recorder is None:
            # Standalone flight recorder so a violation still carries
            # the recent event history even with telemetry off.
            recorder = FlightRecorder()
        verifier = VerificationHarness(sim, recorder=recorder)
        verifier.spans = spans
        verifier.attach_pair(gateways.encoder, gateways.decoder)
        # The forward link alone gates the coherence checks.  What the
        # reverse one carries changes a cache only by a flush that sets
        # ``resyncing`` or moves an epoch, both of which ``quiescent``
        # reads (a resync request; the heartbeat ack that ends a
        # degraded spell), or by an ACK-gated encoder committing
        # deferred rows, which the next check reads like any new row.
        verifier.watch_links(testbed.bottleneck_forward)
    if recorder is not None:
        # Flight-recorder rows resolve packet ids back to trace/span
        # ids, so a post-mortem dump points into the span export.
        recorder.spans = spans
    for node in nodes:
        node.recorder = recorder

    if telemetry is not None:
        if verifier is not None:
            telemetry.register_verifier(verifier)
        if gateways is not None:
            telemetry.register_gateway(gateways.encoder, "encoder")
            telemetry.register_gateway(gateways.decoder, "decoder")
            telemetry.register_dre_pair(gateways.encoder, gateways.decoder)
        for link in bottleneck:
            telemetry.register_link(link)
    if spans is not None:
        for link in bottleneck:
            link.spans = spans
        if gateways is not None:
            gateways.encoder.spans = gateways.decoder.spans = spans
            gateways.encoder.encoder.spans = spans
            gateways.decoder.decoder.spans = spans
    for stack in (testbed.client_stack, testbed.server_stack):
        stack.telemetry = telemetry
        stack.spans = spans
    if profiler is not None:
        if gateways is not None:
            gateways.encoder.encoder.profiler = profiler
            gateways.decoder.decoder.profiler = profiler
        testbed.anchor_memo_before = anchor_memo_stats()

    testbed.telemetry, testbed.spans = telemetry, spans
    testbed.profiler, testbed.verifier = profiler, verifier
    if telemetry is not None:
        telemetry.start()
    if verifier is not None:
        verifier.start()


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

