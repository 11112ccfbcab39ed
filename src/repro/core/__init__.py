"""Byte caching core: fingerprints, caches, encoder/decoder, policies."""

from .cache import ByteCache, PacketStore
from .decoder import ByteCachingDecoder, DecodeResult, DecodeStatus, DecoderStats
from .encoder import ByteCachingEncoder, EncodeResult, EncoderStats
from .fingerprint import (DEFAULT_WINDOW, DEFAULT_ZERO_BITS, FingerprintScheme,
                          anchor_memo_clear, anchor_memo_stats)
from .polyhash import AnchorSet, PolyFingerprinter
from .region import Region
from .shardcache import ShardedByteCache, ShardedPacketStore, shard_of
from .wire import (FIELD_SIZE, MIN_REGION_LENGTH, MissingFingerprintError,
                   WireFormatError, encode_payload, parse_payload, reconstruct,
                   wrap_raw)

__all__ = [
    "ByteCache",
    "PacketStore",
    "ByteCachingDecoder",
    "DecodeResult",
    "DecodeStatus",
    "DecoderStats",
    "ByteCachingEncoder",
    "EncodeResult",
    "EncoderStats",
    "DEFAULT_WINDOW",
    "DEFAULT_ZERO_BITS",
    "FingerprintScheme",
    "anchor_memo_clear",
    "anchor_memo_stats",
    "AnchorSet",
    "PolyFingerprinter",
    "Region",
    "ShardedByteCache",
    "ShardedPacketStore",
    "shard_of",
    "FIELD_SIZE",
    "MIN_REGION_LENGTH",
    "MissingFingerprintError",
    "WireFormatError",
    "encode_payload",
    "parse_payload",
    "reconstruct",
    "wrap_raw",
]
