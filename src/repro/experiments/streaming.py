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

from ..net.udp import UDPStack
from ..sim.engine import Simulator
from ..sim.node import Host, Node
from ..sim.rng import RngRegistry
from .config import LAN_DELAY, ExperimentConfig
from .runner import (CLIENT_ADDR, SERVER_ADDR, LinkSpec, Path, build_gateways,
                     build_path)

#: The frame stream: bytes per frame, seconds between frames, and how
#: much of each frame repeats its predecessor's tail.
FRAME_SIZE = 1200
FRAME_INTERVAL = 0.0015
OVERLAP_FRACTION = 0.5


@dataclass
class StreamingConfig:
    """Parameters of a UDP streaming run."""

    policy: Optional[str] = "k_distance"   # None disables DRE
    k: int = 8
    frame_count: int = 400
    bandwidth: float = 1_000_000.0
    delay: float = 0.0025
    loss_rate: float = 0.0
    seed: int = 11
    corpus_seed: int = 3


@dataclass
class StreamingResult:
    """What a streaming run measured."""

    frames_sent: int
    #: The frames the client received, in arrival order.
    delivered: List[bytes]
    bytes_on_link: int
    undecodable: int
    channel_lost: int

    @property
    def frames_delivered(self) -> int:
        return len(self.delivered)


def make_frames(config: StreamingConfig) -> List[bytes]:
    """Media-like frames: container header + inter-frame redundancy.

    Each frame half-overlaps its predecessor (slowly changing content),
    chaining frame N to frame N-1 — the dependency structure reference
    packets exist to bound.
    """
    rng = random.Random(config.corpus_seed)
    header = rng.randbytes(32)
    frames: List[bytes] = []
    previous = rng.randbytes(FRAME_SIZE)
    overlap = int(FRAME_SIZE * OVERLAP_FRACTION)
    for index in range(config.frame_count):
        fresh = rng.randbytes(max(0, FRAME_SIZE - overlap - 36))
        frame = (header + index.to_bytes(4, "big")
                 + previous[-overlap:] + fresh)[:FRAME_SIZE]
        frames.append(frame)
        previous = frame
    return frames


def build_streaming(config: StreamingConfig) -> Path:
    """The streaming path: server, LAN, encoder, lossy segment, decoder,
    LAN, client (plain forwarding nodes when ``config.policy`` is None)."""
    sim = Simulator()
    rng = RngRegistry(config.seed)
    server = Host(sim, "server", SERVER_ADDR)
    client = Host(sim, "client", CLIENT_ADDR)

    if config.policy is None:
        enc_node: Node = Node(sim, "n1")
        dec_node: Node = Node(sim, "n2")
    else:
        kwargs = {"k": config.k} if config.policy == "k_distance" else {}
        gateways = build_gateways(sim, ExperimentConfig(
            policy=config.policy, policy_kwargs=kwargs))
        enc_node, dec_node = gateways.encoder, gateways.decoder

    return build_path(sim, rng, server, [
        (LinkSpec(1e9, LAN_DELAY, "lan-server", ("up", "up_rev")), enc_node),
        (LinkSpec(config.bandwidth, config.delay, "bottleneck",
                  ("bottleneck", "bottleneck_rev"),
                  forward={"loss_rate": config.loss_rate}), dec_node),
        (LinkSpec(1e9, LAN_DELAY, "lan-client", ("down", "down_rev")),
         client),
    ], bottleneck=1)


def run_streaming(config: StreamingConfig,
                  path: Optional[Path] = None) -> StreamingResult:
    """Stream frames server→client across the lossy segment of ``path``
    (pass one to arm faults on it first; default: a fresh one)."""
    path = path if path is not None else build_streaming(config)
    sim = path.sim
    server_udp = UDPStack(sim, path.server)
    client_udp = UDPStack(sim, path.client)
    received: List[bytes] = []
    sock = client_udp.socket(9000)
    sock.on_receive = lambda src, port, data: received.append(data)
    sender = server_udp.socket(9001)

    frames = make_frames(config)
    for index, frame in enumerate(frames):
        sim.at(index * FRAME_INTERVAL, sender.sendto, frame,
               CLIENT_ADDR, 9000)
    sim.run(until=config.frame_count * FRAME_INTERVAL + 5.0)

    bottleneck = path.bottleneck_forward.stats
    return StreamingResult(
        frames_sent=len(frames),
        delivered=received,
        bytes_on_link=bottleneck.bytes_offered,
        undecodable=(path.gateways.decoder.stats.dropped_total
                     if path.gateways else 0),
        channel_lost=bottleneck.packets_lost,
    )
