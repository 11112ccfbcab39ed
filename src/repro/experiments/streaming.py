"""UDP streaming experiments (§V-C).

k-distance "applies to not only TCP but also UDP traffic": there are no
retransmissions, so a lost packet simply costs every not-yet-referenced
dependent frame — compression and frame delivery trade off directly
against the reference spacing k.  This module runs a media-like frame
stream across the lossy segment and measures that trade.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..core.fingerprint import FingerprintScheme
from ..gateway.pair import GatewayPair
from ..net.udp import UDPStack
from ..sim.engine import Simulator
from ..sim.link import Link
from ..sim.node import Host, Node
from ..sim.rng import RngRegistry

CLIENT_ADDR = "10.0.1.1"
SERVER_ADDR = "10.0.2.1"


@dataclass
class StreamingConfig:
    """Parameters of a UDP streaming run."""

    policy: Optional[str] = "k_distance"   # None disables DRE
    k: int = 8
    frame_count: int = 400
    frame_size: int = 1200
    frame_interval: float = 0.0015
    overlap_fraction: float = 0.5     # how much of each frame repeats
    bandwidth: float = 1_000_000.0
    delay: float = 0.0025
    loss_rate: float = 0.0
    seed: int = 11
    corpus_seed: int = 3


@dataclass
class StreamingResult:
    """What a streaming run measured."""

    frames_sent: int
    frames_delivered: int
    bytes_on_link: int
    undecodable: int
    channel_lost: int

    @property
    def delivery_fraction(self) -> float:
        if self.frames_sent == 0:
            return 1.0
        return self.frames_delivered / self.frames_sent


def make_frames(config: StreamingConfig) -> List[bytes]:
    """Media-like frames: container header + inter-frame redundancy.

    Each frame half-overlaps its predecessor (slowly changing content),
    chaining frame N to frame N-1 — the dependency structure reference
    packets exist to bound.
    """
    rng = random.Random(config.corpus_seed)
    header = rng.randbytes(32)
    frames: List[bytes] = []
    previous = rng.randbytes(config.frame_size)
    overlap = int(config.frame_size * config.overlap_fraction)
    for index in range(config.frame_count):
        fresh = rng.randbytes(max(0, config.frame_size - overlap - 36))
        frame = (header + index.to_bytes(4, "big")
                 + previous[-overlap:] + fresh)[: config.frame_size]
        frames.append(frame)
        previous = frame
    return frames


def run_streaming(config: StreamingConfig) -> StreamingResult:
    """Stream frames server→client across the lossy segment."""
    sim = Simulator()
    rng = RngRegistry(config.seed)
    server = Host(sim, "server", SERVER_ADDR)
    client = Host(sim, "client", CLIENT_ADDR)

    if config.policy is None:
        enc_node: Node = Node(sim, "n1")
        dec_node: Node = Node(sim, "n2")
        gateways = None
    else:
        kwargs = {"k": config.k} if config.policy == "k_distance" else {}
        gateways = GatewayPair.create(sim, policy=config.policy,
                                      scheme=FingerprintScheme(),
                                      data_dst=CLIENT_ADDR, **kwargs)
        enc_node, dec_node = gateways.encoder, gateways.decoder

    up = Link(sim, 1e9, 0.0005, rng=rng.stream("up"))
    bottleneck = Link(sim, config.bandwidth, config.delay,
                      loss_rate=config.loss_rate,
                      rng=rng.stream("bottleneck"))
    down = Link(sim, 1e9, 0.0005, rng=rng.stream("down"))
    up.connect(enc_node.receive)
    bottleneck.connect(dec_node.receive)
    down.connect(client.receive)
    server.set_default_route(up)
    enc_node.set_default_route(bottleneck)
    dec_node.set_default_route(down)

    server_udp = UDPStack(sim, server)
    client_udp = UDPStack(sim, client)
    received: List[bytes] = []
    sock = client_udp.socket(9000)
    sock.on_receive = lambda src, port, data: received.append(data)
    sender = server_udp.socket(9001)

    frames = make_frames(config)
    for index, frame in enumerate(frames):
        sim.at(index * config.frame_interval, sender.sendto, frame,
               CLIENT_ADDR, 9000)
    sim.run(until=config.frame_count * config.frame_interval + 5.0)

    return StreamingResult(
        frames_sent=len(frames),
        frames_delivered=len(received),
        bytes_on_link=bottleneck.stats.bytes_offered,
        undecodable=(gateways.decoder.stats.dropped_total
                     if gateways else 0),
        channel_lost=bottleneck.stats.packets_lost,
    )
