"""Encoding/decoding policies: the paper's three algorithms (§V), the
naive baseline (§III), adaptive k-distance, and the ACK-gated caching
§VIII proposes.
"""

from typing import Any, Callable, Dict, Tuple

from .ack_gated import AckGatedDecoderPolicy, AckGatedPolicy
from .base import DecoderPolicy, EncoderPolicy, PacketMeta
from .cache_flush import CacheFlushPolicy
from .k_distance import AdaptiveKDistancePolicy, KDistancePolicy
from .naive import NaivePolicy
from .tcp_seq import TcpSeqPolicy

#: Registry of encoder policies by name.  ``make_policy_pair`` builds a
#: matching (encoder_policy, decoder_policy) tuple; most schemes use the
#: default drop-on-missing decoder.
ENCODER_POLICIES: Dict[str, Callable[..., EncoderPolicy]] = {
    "naive": NaivePolicy,
    "cache_flush": CacheFlushPolicy,
    "tcp_seq": TcpSeqPolicy,
    "k_distance": KDistancePolicy,
    "adaptive_k": AdaptiveKDistancePolicy,
    "ack_gated": AckGatedPolicy,
}


def make_policy_pair(name: str,
                     **kwargs: Any) -> Tuple[EncoderPolicy, DecoderPolicy]:
    """Instantiate the encoder/decoder policy pair for a scheme name.

    ``kwargs`` go to the encoder policy constructor (e.g. ``k=8`` for
    k-distance), except decoder-prefixed keys (``decoder_*``) which go
    to the decoder policy of schemes that have one.
    """
    if name not in ENCODER_POLICIES:
        raise ValueError(
            f"unknown policy {name!r}; known: {sorted(ENCODER_POLICIES)}")
    decoder_kwargs = {key[len("decoder_"):]: value
                      for key, value in kwargs.items()
                      if key.startswith("decoder_")}
    encoder_kwargs = {key: value for key, value in kwargs.items()
                      if not key.startswith("decoder_")}
    encoder_policy = ENCODER_POLICIES[name](**encoder_kwargs)
    if name == "ack_gated":
        decoder_policy: DecoderPolicy = AckGatedDecoderPolicy(**decoder_kwargs)
    else:
        decoder_policy = DecoderPolicy(**decoder_kwargs)
    return encoder_policy, decoder_policy


__all__ = [
    "AckGatedDecoderPolicy",
    "AckGatedPolicy",
    "AdaptiveKDistancePolicy",
    "CacheFlushPolicy",
    "DecoderPolicy",
    "EncoderPolicy",
    "ENCODER_POLICIES",
    "KDistancePolicy",
    "NaivePolicy",
    "PacketMeta",
    "TcpSeqPolicy",
    "make_policy_pair",
]
