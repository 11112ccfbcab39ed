"""Helper for creating a matched encoder/decoder gateway pair."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.cache import ByteCache
from ..core.fingerprint import FingerprintScheme
from ..core.shardcache import ShardedByteCache
from ..core.policies import make_policy_pair
from ..sim.engine import Simulator
from .middlebox import DecoderGateway, EncoderGateway
from .resilience import ResilienceConfig


@dataclass
class GatewayPair:
    """An encoder and decoder sharing a fingerprint scheme and policy."""

    encoder: EncoderGateway
    decoder: DecoderGateway

    @classmethod
    def create(cls, sim: Simulator, policy: str = "naive",
               scheme: Optional[FingerprintScheme] = None,
               data_dst: Optional[str] = None,
               cache_bytes: int = 16 * 1024 * 1024,
               cache_max_packets: Optional[int] = None,
               cache_eviction: str = "fifo",
               cache_shards: int = 0,
               cache_admission: float = 1.0,
               resilience: Optional[ResilienceConfig] = None,
               telemetry=None,
               verifier=None,
               spans=None,
               **policy_kwargs) -> "GatewayPair":
        """Build both gateways for one direction of traffic.

        ``policy`` is a name from
        :data:`repro.core.policies.ENCODER_POLICIES`; ``policy_kwargs``
        are forwarded to it (e.g. ``k=8``).  ``data_dst`` restricts the
        encoded direction to packets destined for that address (the
        client, in the paper's downstream-transfer setup).  A
        ``resilience`` config arms the failure-recovery layer (epochs,
        resync, heartbeats) on both gateways.  A ``telemetry`` facade
        (duck-typed, see :mod:`repro.metrics.telemetry`) registers cache
        occupancy, drop accounting, resilience state and the running
        perceived-loss gauge on both sides.  A ``verifier`` harness
        (duck-typed, see :mod:`repro.verify.oracles`) attaches its
        invariant oracles to both ends of the pair.  A ``spans``
        recorder (duck-typed, see :mod:`repro.metrics.spans`) threads
        causal per-packet traces through both gateways and their codec
        cores.
        """
        if scheme is None:
            scheme = FingerprintScheme()
        encoder_policy, decoder_policy = make_policy_pair(policy, **policy_kwargs)

        def build_cache():
            # ``cache_shards > 0`` selects the shared-cache serving
            # configuration: one memory-bounded sharded cache per
            # direction, LRU by default.  Probabilistic admission applies
            # on either branch.  Both gateways get structurally identical
            # caches either way — cache symmetry is what DRE relies on.
            if cache_shards > 0:
                return ShardedByteCache(
                    cache_bytes, n_shards=cache_shards,
                    max_packets=cache_max_packets,
                    eviction=cache_eviction,
                    admission=cache_admission)
            return ByteCache(cache_bytes, cache_max_packets, cache_eviction,
                             admission=cache_admission)

        encoder = EncoderGateway(
            sim, "encoder-gw", "10.255.0.1", scheme, build_cache(),
            encoder_policy, data_dst=data_dst, resilience=resilience)
        decoder = DecoderGateway(
            sim, "decoder-gw", "10.255.0.2", scheme, build_cache(),
            decoder_policy, data_dst=data_dst, resilience=resilience)
        encoder.set_peer(decoder.address)
        decoder.set_peer(encoder.address)
        if telemetry is not None:
            telemetry.register_gateway(encoder, "encoder")
            telemetry.register_gateway(decoder, "decoder")
            telemetry.register_dre_pair(encoder, decoder)
        if verifier is not None:
            verifier.attach_pair(encoder, decoder)
        if spans is not None:
            encoder.spans = spans
            decoder.spans = spans
            encoder.encoder.spans = spans
            decoder.decoder.spans = spans
        return cls(encoder=encoder, decoder=decoder)
