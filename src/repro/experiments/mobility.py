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

from ..app.transfer import FileClient, FileServer, TransferOutcome
from ..gateway.pair import GatewayPair
from ..gateway.tcp_proxy import create_proxy_pair
from ..net.tcp import TCPConfig, TCPStack
from ..sim.engine import Simulator
from ..sim.link import Link
from ..sim.node import Host, Node
from ..sim.rng import RngRegistry
from ..workload.corpus import corpus_object

CLIENT_ADDR = "10.0.1.1"
SERVER_ADDR = "10.0.2.1"
FILE_NAME = "object"


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

    client = Host(sim, "client", CLIENT_ADDR)
    server = Host(sim, "server", SERVER_ADDR)
    client_stack = TCPStack(sim, client, tcp_config)
    server_stack = TCPStack(sim, server, tcp_config)

    # ---- path A: client - G1 - bottleneck - G2 - server
    lan_c_up = Link(sim, 1e9, 0.0005, rng=rng.stream("lan_c_up"))
    lan_c_down = Link(sim, 1e9, 0.0005, rng=rng.stream("lan_c_down"))
    bott_up = Link(sim, config.bandwidth, config.path_delay,
                   rng=rng.stream("bott_up"))
    bott_down = Link(sim, config.bandwidth, config.path_delay,
                     loss_rate=config.loss_rate_a,
                     rng=rng.stream("bott_down"))
    lan_s_up = Link(sim, 1e9, 0.0005, rng=rng.stream("lan_s_up"))
    lan_s_down = Link(sim, 1e9, 0.0005, rng=rng.stream("lan_s_down"))

    if config.mode == "ip-dre":
        gateways = GatewayPair.create(sim, policy=config.policy,
                                      data_dst=CLIENT_ADDR)
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

    lan_c_up.connect(g1.receive)
    bott_up.connect(g2.receive)
    lan_s_up.connect(server.receive)
    lan_s_down.connect(g2.receive)
    bott_down.connect(g1.receive)
    lan_c_down.connect(client.receive)

    client.set_default_route(lan_c_up)
    server.set_default_route(lan_s_down)
    if config.mode == "tcp-proxy":
        g1.attach_routes(toward_client=lan_c_down, toward_server=bott_up,
                         peer_address=g2.address, peer_side="server")
        g2.attach_routes(toward_client=bott_down, toward_server=lan_s_up,
                         peer_address=g1.address, peer_side="client")
        g1.connect_relay(g2.address)
    else:
        g1.add_route(CLIENT_ADDR, lan_c_down)
        g1.set_default_route(bott_up)
        g2.add_route(CLIENT_ADDR, bott_down)
        g2.set_default_route(lan_s_up)
        if config.mode == "ip-dre":
            g2.add_route(g1.address, bott_down)
            g1.add_route(g2.address, bott_up)

    # ---- path B: client - direct segment - server (no gateways)
    path_b_up = Link(sim, config.bandwidth, config.path_delay,
                     loss_rate=config.loss_rate_b,
                     rng=rng.stream("path_b_up"))
    path_b_down = Link(sim, config.bandwidth, config.path_delay,
                       loss_rate=config.loss_rate_b,
                       rng=rng.stream("path_b_down"))
    path_b_up.connect(server.receive)
    path_b_down.connect(client.receive)

    # ---- application
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    FileServer(server_stack, {FILE_NAME: data})
    client_app = FileClient(client_stack, sim)
    outcome = client_app.fetch(SERVER_ADDR, FILE_NAME,
                               expected_size=len(data),
                               expected_content=data,
                               on_done=lambda _o: sim.stop())

    # ---- the handoff: both endpoints re-route (Mobile IP keeps the
    # client's address; the server's path to it follows the binding),
    # and the old access link goes dark — anything in flight on path A
    # towards the client is lost, as §II-B describes.
    def handoff() -> None:
        client.set_default_route(path_b_up)
        server.add_route(CLIENT_ADDR, path_b_down)
        lan_c_down.connect(lambda pkt: None)   # radio detached

    sim.after(config.handoff_at, handoff)
    sim.run(until=config.time_limit)

    return MobilityResult(
        outcome=outcome, mode=config.mode, handoff_at=config.handoff_at,
        bytes_path_a=bott_down.stats.bytes_offered,
        bytes_path_b=path_b_down.stats.bytes_offered,
        sim_time=sim.now)
