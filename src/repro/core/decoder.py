"""The byte-caching decoder.

Performs the reciprocal steps of the encoder (§III-B): parse the
encoding fields, fetch each referenced payload from the local cache,
splice literals and copied regions back together, and then run the same
Cache Update procedure over the reconstructed payload so the decoder's
cache tracks the encoder's.

Failure handling is the crux of the paper: a referenced fingerprint
that is absent (its carrier packet was lost) makes the packet
*undecodable* and it is dropped (§IV-A t3), raising the perceived loss
rate (§VII).  A stale entry — present but pointing at different bytes
because the replacing packet was lost — is caught by the end-to-end
payload checksum and the packet is likewise dropped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .cache import ByteCache
from .checksum import verify_payload
from .fingerprint import FingerprintScheme
from .policies.base import DecoderPolicy, PacketMeta
from .wire import (EncodedPayload, MissingFingerprintError, WireFormatError,
                   parse_payload, reconstruct)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .polyhash import AnchorSet


class DecodeStatus(enum.Enum):
    OK_RAW = "ok_raw"                 # pass-through payload
    OK_DECODED = "ok_decoded"         # regions reconstructed successfully
    MISSING = "missing"               # referenced fingerprint not cached
    CHECKSUM_MISMATCH = "checksum"    # reconstruction produced wrong bytes
    MALFORMED = "malformed"           # wire format damaged (corruption)


@dataclass
class DecodeResult:
    status: DecodeStatus
    payload: Optional[bytes] = None
    missing: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in (DecodeStatus.OK_RAW, DecodeStatus.OK_DECODED)


@dataclass
class DecoderStats:
    packets: int = 0
    raw: int = 0
    decoded: int = 0
    missing: int = 0
    checksum_mismatch: int = 0
    history_decodes: int = 0     # saved by displaced, still-stored entries
    malformed: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    @property
    def undecodable(self) -> int:
        """Packets lost to cache desynchronisation (not channel loss)."""
        return self.missing + self.checksum_mismatch + self.malformed


class ByteCachingDecoder:
    """Decodes shimmed payloads against a local byte cache."""

    def __init__(self, scheme: FingerprintScheme, cache: ByteCache,
                 policy: Optional[DecoderPolicy] = None) -> None:
        self.scheme = scheme
        self.cache = cache
        self.policy = policy if policy is not None else DecoderPolicy()
        self.stats = DecoderStats()
        #: Optional :class:`repro.metrics.profiling.StageProfiler`.
        self.profiler = None
        #: Optional :class:`repro.verify.oracles.VerificationHarness`;
        #: None (the default) costs one ``is None`` check per drop.
        self.verifier = None
        #: Optional causal span recorder (duck-typed,
        #: :class:`repro.metrics.spans.SpanRecorder`).  When set,
        #: reconstruction emits a ``reconstruct`` stage span under the
        #: gateway's decode span; None costs one check per encoded
        #: packet.
        self.spans: Optional[Any] = None
        self.policy.attach_decoder(self)

    def decode(self, data: bytes, meta: PacketMeta,
               checksum: Optional[int] = None) -> DecodeResult:
        """Decode one wire payload.

        ``checksum`` is the sender's end-to-end payload checksum (the
        TCP checksum's role); when given, reconstructed bytes are
        verified against it before being accepted.
        """
        self.stats.packets += 1
        self.stats.bytes_in += len(data)

        try:
            parsed = parse_payload(data)
        except WireFormatError:
            self.stats.malformed += 1
            return DecodeResult(DecodeStatus.MALFORMED)

        if isinstance(parsed, bytes):
            payload = parsed
            if checksum is not None and not verify_payload(payload, checksum):
                # Raw payload corrupted on the wire.
                self.stats.checksum_mismatch += 1
                return DecodeResult(DecodeStatus.CHECKSUM_MISMATCH)
            self._accept(payload, meta)
            self.stats.raw += 1
            self.stats.bytes_out += len(payload)
            return DecodeResult(DecodeStatus.OK_RAW, payload)

        # One cache lookup per referenced region serves both questions:
        # is anything missing, and what are the bytes to splice.
        # Zero-copy: regions are spliced straight out of the packet
        # store's buffers (memoryviews), no per-region copy.
        lookup_view = self.cache.lookup_view
        sources: Dict[int, memoryview] = {}
        missing: List[int] = []
        for fingerprint, _, _, _ in parsed.regions:
            view = lookup_view(fingerprint)
            if view is None:
                missing.append(fingerprint)
            else:
                sources[fingerprint] = view
        if missing:
            self.stats.missing += 1
            if self.verifier is not None:
                self.verifier.on_undecodable(meta, missing)
            return DecodeResult(DecodeStatus.MISSING, missing=missing)

        spans = self.spans
        if spans is not None:
            wall0 = perf_counter()
        try:
            payload = reconstruct(parsed, sources.get)
        except (WireFormatError, MissingFingerprintError):
            self.stats.malformed += 1
            if spans is not None:
                spans.stage("reconstruct", "decoder-core",
                            perf_counter() - wall0, len(parsed.regions),
                            None, "malformed")
            return DecodeResult(DecodeStatus.MALFORMED)
        if spans is not None:
            spans.stage("reconstruct", "decoder-core", perf_counter() - wall0,
                        len(parsed.regions), len(payload))

        if checksum is not None and not verify_payload(payload, checksum):
            # Stale cache entry: some fingerprint resolved to bytes that
            # differ from what the encoder referenced.  The encoder's
            # view may simply lag ours by one replacement generation
            # (references race cache updates by up to an RTT), so retry
            # against the displaced entries before giving up.
            fallback = self._reconstruct_with_history(parsed, checksum)
            if fallback is not None:
                self.stats.history_decodes += 1
                self._accept(fallback, meta)
                self.stats.decoded += 1
                self.stats.bytes_out += len(fallback)
                return DecodeResult(DecodeStatus.OK_DECODED, fallback)
            self.stats.checksum_mismatch += 1
            if self.verifier is not None:
                self.verifier.on_stale(
                    meta, [fingerprint
                           for fingerprint, _, _, _ in parsed.regions])
            return DecodeResult(DecodeStatus.CHECKSUM_MISMATCH)

        self._accept(payload, meta)
        self.stats.decoded += 1
        self.stats.bytes_out += len(payload)
        return DecodeResult(DecodeStatus.OK_DECODED, payload)

    def insert_raw_payload(self, payload: bytes, meta: PacketMeta) -> None:
        """Cache a payload that arrived outside :meth:`decode`."""
        self._accept(payload, meta)

    # -- internal ---------------------------------------------------------

    def _reconstruct_with_history(self, parsed: EncodedPayload,
                                  checksum: int) -> Optional[bytes]:
        """Retry reconstruction substituting displaced cache entries.

        Tries every combination of {current, previous} entry per
        distinct referenced fingerprint (bounded to 4 swappable
        fingerprints = 15 extra attempts) and returns the first
        reconstruction matching the end-to-end checksum.
        """
        # Each referenced source's store id, current and displaced, is
        # resolved once.  decode() reached here through a successful
        # lookup_view of every region, and nothing has touched the
        # cache since, so every current id is usable and stored.  Each
        # attempt still reads the store once per region in splice
        # order, as a lookup per region would: an LRU store sees the
        # same touches in the same order.
        cache = self.cache
        current: Dict[int, int] = {}
        previous: Dict[int, int] = {}
        for fingerprint, _, _, _ in parsed.regions:
            if fingerprint in current:
                continue
            entry = cache.table.get(fingerprint)
            if entry is None:
                return None
            current[fingerprint] = entry.store_id
            hit = cache.lookup_previous(fingerprint)
            if hit is not None:
                previous[fingerprint] = hit[0].store_id
        if not previous or len(previous) > 4:
            return None

        swappable = list(previous.items())
        store_get = cache.store.get
        sources = dict(current)

        def resolve(fingerprint: int) -> Optional[bytes]:
            return store_get(sources[fingerprint])

        for mask in range(1, 1 << len(swappable)):
            for index, (fingerprint, store_id) in enumerate(swappable):
                sources[fingerprint] = (store_id if mask >> index & 1
                                        else current[fingerprint])
            try:
                payload = reconstruct(parsed, resolve)
            except (WireFormatError, MissingFingerprintError):
                continue
            if verify_payload(payload, checksum):
                return payload
        return None

    def _accept(self, payload: bytes, meta: PacketMeta) -> None:
        """Mirror the encoder's Cache Update procedure."""
        profiler = self.profiler
        if profiler is not None:
            started = perf_counter()
            anchors = self.scheme.anchors(payload)
            profiler.add("decode_fingerprint", perf_counter() - started)
        else:
            anchors = self.scheme.anchors(payload)
        if not self.policy.should_cache_now(meta):
            self.policy.defer_cache(payload, anchors, meta)
            return
        if profiler is not None:
            started = perf_counter()
            self.insert_anchors(payload, anchors, meta)
            profiler.add("decode_cache_ops", perf_counter() - started)
        else:
            self.insert_anchors(payload, anchors, meta)

    def insert_anchors(self, payload: bytes, anchors: "AnchorSet",
                       meta: PacketMeta) -> None:
        """Commit one payload (and its anchors) into the decoder cache."""
        self.cache.insert_packet(
            payload, anchors,
            tcp_seq=meta.tcp_seq,
            flow=meta.flow,
            packet_counter=meta.counter,
            external_id=meta.packet_id,
        )
