"""The §II mobility experiment: handoff during a transfer.

Builds the two-path topology of the paper's motivation section:

* **path A** ("cellular"): client — G1 — 1 MB/s lossy segment — G2 —
  server, where G1/G2 are byte-caching gateways in one of two modes:
  IP-level (:mod:`repro.gateway.middlebox`) or transparent split-TCP
  (:mod:`repro.gateway.tcp_proxy`);
* **path B** ("WiFi"): client — direct segment — server, with no
  gateways.

Mid-transfer the client *hands off* from path A to path B (its address
is preserved, as Mobile IP would).  §II's claims, reproduced by
:func:`run_mobility`:

* with **TCP-level** gateways the transfer stalls: the client's ACKs
  now reach the real server inside a connection whose sequence numbers
  belong to G1's split connection (Fig. 1, t5);
* with **IP-level** gateways TCP stays end-to-end, the client's ACK
  from the new path tells the server exactly what was received, and the
  download resumes (§II-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..app.transfer import TransferOutcome
from ..gateway.tcp_proxy import create_proxy_pair
from ..net.tcp import TCPConfig, TCPStack
from ..sim.engine import Simulator
from ..sim.node import Host, Node
from ..sim.rng import RngRegistry
from ..workload.corpus import corpus_object
from .config import LAN_DELAY, ExperimentConfig
from .runner import (CLIENT_ADDR, FILE_NAME, SERVER_ADDR, Fetch, LinkSpec,
                     Testbed, build_gateways, build_path, run_fetches)


@dataclass
class MobilityConfig:
    """Parameters of a handoff run."""

    mode: str = "ip-dre"            # "ip-dre" | "tcp-proxy" | "none"
    policy: str = "cache_flush"     # DRE policy (both modes)
    handoff_at: float = 0.25        # seconds into the transfer
    corpus: str = "file1"
    file_size: int = 0
    corpus_seed: int = 3
    bandwidth: float = 1_000_000.0
    path_delay: float = 0.0025
    loss_rate_a: float = 0.01
    loss_rate_b: float = 0.0
    seed: int = 11
    time_limit: float = 120.0
    tcp_max_retries: int = 8
    tcp_max_rto: float = 2.0


@dataclass
class MobilityResult:
    """Outcome of a handoff run."""

    outcome: TransferOutcome
    mode: str
    handoff_at: float
    bytes_path_a: int = 0
    bytes_path_b: int = 0
    sim_time: float = 0.0

    @property
    def completed(self) -> bool:
        return self.outcome.completed


def run_mobility(config: MobilityConfig) -> MobilityResult:
    """Run one transfer with a mid-stream path A → path B handoff."""
    sim = Simulator()
    rng = RngRegistry(config.seed)
    tcp_config = TCPConfig(max_retries=config.tcp_max_retries,
                           max_rto=config.tcp_max_rto)
    experiment = ExperimentConfig(policy=config.policy,
                                  time_limit=config.time_limit,
                                  verify_content=True)

    client = Host(sim, "client", CLIENT_ADDR)
    server = Host(sim, "server", SERVER_ADDR)

    if config.mode == "ip-dre":
        gateways = build_gateways(sim, experiment)
        g1: Node = gateways.decoder     # client side
        g2: Node = gateways.encoder     # server side
    elif config.mode == "tcp-proxy":
        g1, g2 = create_proxy_pair(sim, CLIENT_ADDR, SERVER_ADDR,
                                   policy=config.policy,
                                   tcp_config=tcp_config)
    elif config.mode == "none":
        g1, g2 = Node(sim, "a1"), Node(sim, "a2")
    else:
        raise ValueError(f"unknown mode {config.mode!r}")

    # ---- path B: client - direct segment - server (no gateways), wired
    # first: path A's routes on the end hosts hold until the handoff.
    path_b = build_path(sim, rng, server, [
        (LinkSpec(config.bandwidth, config.path_delay, "path-b",
                  ("path_b_down", "path_b_up"),
                  forward={"loss_rate": config.loss_rate_b},
                  reverse={"loss_rate": config.loss_rate_b}), client),
    ], bottleneck=0)
    # ---- path A: server - G2 - bottleneck - G1 - client
    path_a = build_path(sim, rng, server, [
        (LinkSpec(1e9, LAN_DELAY, "lan-server",
                  ("lan_s_down", "lan_s_up")), g2),
        (LinkSpec(config.bandwidth, config.path_delay, "bottleneck",
                  ("bott_down", "bott_up"),
                  forward={"loss_rate": config.loss_rate_a}), g1),
        (LinkSpec(1e9, LAN_DELAY, "lan-client",
                  ("lan_c_down", "lan_c_up")), client),
    ], bottleneck=1)
    if config.mode == "tcp-proxy":
        g1.connect_relay(g2.address)

    # ---- the handoff: both endpoints re-route (Mobile IP keeps the
    # client's address; the server's path to it follows the binding),
    # and the old access link goes dark — anything in flight on path A
    # towards the client is lost, as §II-B describes.
    def handoff() -> None:
        client.set_default_route(path_b.bottleneck_reverse)
        server.add_route(CLIENT_ADDR, path_b.bottleneck_forward)
        path_a.links[-1][0].connect(lambda pkt: None)   # radio detached

    sim.after(config.handoff_at, handoff)

    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    run = run_fetches(
        Testbed(**vars(path_a),
                client_stack=TCPStack(sim, client, tcp_config),
                server_stack=TCPStack(sim, server, tcp_config)),
        experiment,
        {FILE_NAME: data}, [Fetch()])

    return MobilityResult(
        outcome=run.outcomes[0], mode=config.mode,
        handoff_at=config.handoff_at,
        bytes_path_a=path_a.bottleneck_forward.stats.bytes_offered,
        bytes_path_b=path_b.bottleneck_forward.stats.bytes_offered,
        sim_time=sim.now)
