"""Unit/integration tests for the encoder/decoder pair."""

import random
import struct

from repro.core import (ByteCache, ByteCachingDecoder, ByteCachingEncoder,
                        DecodeStatus, FingerprintScheme)
from repro.core.checksum import payload_checksum, verify_payload
from repro.core.policies import DecoderPolicy, NaivePolicy, PacketMeta
from repro.core.region import Region
from repro.core.wire import (ENCODED_HEADER_SIZE, FIELD_SIZE,
                             MissingFingerprintError, WireFormatError,
                             encode_payload, reconstruct)

FLOW = ("10.0.2.1", 80, "10.0.1.1", 5000)


def make_pair(scheme=None, cache_kwargs=None):
    scheme = scheme or FingerprintScheme()
    kwargs = cache_kwargs or {}
    encoder = ByteCachingEncoder(scheme, ByteCache(**kwargs), NaivePolicy())
    decoder = ByteCachingDecoder(scheme, ByteCache(**kwargs), DecoderPolicy())
    return encoder, decoder


def meta(i, seq=None):
    return PacketMeta(packet_id=i, flow=FLOW,
                      tcp_seq=seq if seq is not None else i * 1460, counter=i)


def random_payload(rng, n=1460):
    return bytes(rng.randrange(256) for _ in range(n))


def roundtrip(encoder, decoder, payload, packet_meta):
    result = encoder.encode(payload, packet_meta)
    decoded = decoder.decode(result.data, packet_meta,
                             checksum=payload_checksum(payload))
    return result, decoded


class TestRoundtrip:
    def test_fresh_content_passes_through(self):
        encoder, decoder = make_pair()
        rng = random.Random(0)
        payload = random_payload(rng)
        result, decoded = roundtrip(encoder, decoder, payload, meta(1))
        assert not result.encoded
        assert decoded.status is DecodeStatus.OK_RAW
        assert decoded.payload == payload

    def test_repeated_content_compresses_and_decodes(self):
        encoder, decoder = make_pair()
        rng = random.Random(1)
        base = random_payload(rng)
        roundtrip(encoder, decoder, base, meta(1))
        overlap = base[:800] + random_payload(rng, 660)
        result, decoded = roundtrip(encoder, decoder, overlap, meta(2))
        assert result.encoded
        assert result.bytes_out < result.bytes_in
        assert decoded.status is DecodeStatus.OK_DECODED
        assert decoded.payload == overlap

    def test_identical_retransmission_compresses_to_nearly_nothing(self):
        encoder, decoder = make_pair()
        rng = random.Random(2)
        payload = random_payload(rng)
        roundtrip(encoder, decoder, payload, meta(1))
        result, decoded = roundtrip(encoder, decoder, payload, meta(2))
        assert result.encoded
        assert result.bytes_out < 40
        assert decoded.payload == payload

    def test_long_stream_roundtrip(self):
        encoder, decoder = make_pair()
        rng = random.Random(3)
        chunks = [random_payload(rng, 400) for _ in range(6)]
        for i in range(40):
            payload = (chunks[rng.randrange(6)] + random_payload(rng, 200)
                       + chunks[rng.randrange(6)])
            _, decoded = roundtrip(encoder, decoder, payload, meta(i))
            assert decoded.ok
            assert decoded.payload == payload

    def test_multiple_regions_in_one_packet(self):
        encoder, decoder = make_pair()
        rng = random.Random(4)
        a, b = random_payload(rng, 700), random_payload(rng, 700)
        roundtrip(encoder, decoder, a, meta(1))
        roundtrip(encoder, decoder, b, meta(2))
        mixed = a[:300] + random_payload(rng, 100) + b[100:500]
        result, decoded = roundtrip(encoder, decoder, mixed, meta(3))
        assert len(result.regions) >= 2
        assert decoded.payload == mixed

    def test_dependencies_tracked(self):
        encoder, decoder = make_pair()
        rng = random.Random(5)
        a = random_payload(rng, 700)
        b = random_payload(rng, 700)
        roundtrip(encoder, decoder, a, meta(10))
        roundtrip(encoder, decoder, b, meta(11))
        mixed = a[:300] + b[:300] + random_payload(rng, 100)
        result, _ = roundtrip(encoder, decoder, mixed, meta(12))
        assert result.dependencies == {10, 11}


class TestLossBehaviour:
    def test_missing_dependency_is_undecodable(self):
        """§IV-A t1-t3: the carrier packet is lost, the next packet's
        encoding references it, the decoder must drop."""
        encoder, decoder = make_pair()
        rng = random.Random(6)
        payload = random_payload(rng)
        lost = encoder.encode(payload, meta(1))       # never decoded
        assert lost is not None
        result = encoder.encode(payload, meta(2))     # encoded against #1
        assert result.encoded
        decoded = decoder.decode(result.data, meta(2),
                                 checksum=payload_checksum(payload))
        assert decoded.status is DecodeStatus.MISSING
        assert decoded.missing
        assert decoder.stats.missing == 1

    def test_stale_entry_caught_by_checksum(self):
        """Encoder replaced an entry with a packet the decoder missed:
        the fingerprint resolves to wrong bytes and the end-to-end
        checksum must catch it."""
        scheme = FingerprintScheme()
        encoder, decoder = make_pair(scheme)
        rng = random.Random(7)
        shared = random_payload(rng, 600)
        first = shared + random_payload(rng, 300)
        # Delivered: both caches hold `first`.
        r1 = encoder.encode(first, meta(1))
        decoder.decode(r1.data, meta(1), checksum=payload_checksum(first))
        # Same shared chunk at a different offset — lost in transit, so
        # only the encoder replaces its entries.
        second = random_payload(rng, 100) + shared + random_payload(rng, 200)
        encoder.encode(second, meta(2))
        # Third packet references the shared chunk; the encoder's entry
        # points into `second`, the decoder's into `first`.
        third = shared[:400] + random_payload(rng, 500)
        r3 = encoder.encode(third, meta(3))
        if r3.encoded:
            decoded = decoder.decode(r3.data, meta(3),
                                     checksum=payload_checksum(third))
            assert decoded.status in (DecodeStatus.CHECKSUM_MISMATCH,
                                      DecodeStatus.MISSING,
                                      DecodeStatus.MALFORMED)
            assert decoded.payload is None

    def test_history_retry_rescues_one_generation_lag(self):
        """The decoder's fingerprint entry was replaced by a packet the
        *encoder* hadn't processed when it encoded — the displaced entry
        still reconstructs correctly (the ACK-gating race, generalised)."""
        scheme = FingerprintScheme()
        encoder, decoder = make_pair(scheme)
        rng = random.Random(20)
        shared = random_payload(rng, 600)

        first = shared + random_payload(rng, 300)
        r1 = encoder.encode(first, meta(1))
        decoder.decode(r1.data, meta(1), checksum=payload_checksum(first))

        # The encoder, still referencing `first`, encodes a new packet.
        third = shared[:400] + random_payload(rng, 500)
        r3 = encoder.encode(third, meta(3))

        # Before r3 arrives, the decoder processes another copy of the
        # shared chunk at a different offset (replacing its entries).
        second = random_payload(rng, 100) + shared + random_payload(rng, 200)
        # Bypass the encoder: decode a raw-wrapped copy directly.
        from repro.core.wire import wrap_raw
        decoder.decode(wrap_raw(second), meta(2),
                       checksum=payload_checksum(second))

        if r3.encoded:
            outcome = decoder.decode(r3.data, meta(3),
                                     checksum=payload_checksum(third))
            assert outcome.ok
            assert outcome.payload == third
            assert decoder.stats.history_decodes >= 1

    def test_malformed_wire_data_counted(self):
        _, decoder = make_pair()
        result = decoder.decode(b"\x00garbage", meta(1), checksum=0)
        assert result.status is DecodeStatus.MALFORMED
        assert decoder.stats.malformed == 1

    def test_corrupted_raw_payload_caught(self):
        encoder, decoder = make_pair()
        rng = random.Random(8)
        payload = random_payload(rng)
        result = encoder.encode(payload, meta(1))
        damaged = bytearray(result.data)
        damaged[100] ^= 0xFF
        decoded = decoder.decode(bytes(damaged), meta(1),
                                 checksum=payload_checksum(payload))
        assert decoded.status is DecodeStatus.CHECKSUM_MISMATCH


def closure_history_fallback(decoder, parsed, checksum):
    """The decoder's history fallback as it was written before each
    source's store id was resolved once: one closure and one set per
    attempt, and a full cache lookup per region."""
    cache = decoder.cache
    fingerprints = []
    for fingerprint, _, _, _ in parsed.regions:
        if fingerprint not in fingerprints:
            fingerprints.append(fingerprint)
    swappable = [fp for fp in fingerprints
                 if cache.lookup_previous(fp) is not None]
    if not swappable or len(swappable) > 4:
        return None
    for mask in range(1, 1 << len(swappable)):
        use_previous = {fp for index, fp in enumerate(swappable)
                        if mask >> index & 1}

        def resolve(fingerprint, use_previous=use_previous):
            if fingerprint in use_previous:
                hit = cache.lookup_previous(fingerprint)
            else:
                hit = cache.lookup(fingerprint)
            return hit[1] if hit is not None else None

        try:
            payload = reconstruct(parsed, resolve)
        except (WireFormatError, MissingFingerprintError):
            continue
        if verify_payload(payload, checksum):
            return payload
    return None


class TestHistoryFallbackOrder:
    """Under an LRU store every read is a recency move, so the fallback
    must read the store exactly as a cache lookup per region did."""

    SCHEME = FingerprintScheme()

    def decoder_with_history(self):
        """An LRU decoder whose chunks ``a`` and ``b`` were each cached
        twice (``p1`` then ``p2``/``p3``), so their fingerprints have a
        current and a displaced entry; plus the regions of a stale
        packet: three sources, one of them twice, unsorted."""
        rng = random.Random(30)
        a, b = random_payload(rng, 600), random_payload(rng, 600)
        p1 = a + b
        p2 = random_payload(rng, 50) + a + random_payload(rng, 100)
        p3 = random_payload(rng, 70) + b + random_payload(rng, 60)
        decoder = ByteCachingDecoder(self.SCHEME, ByteCache(eviction="lru"),
                                     DecoderPolicy())
        for counter, payload in enumerate((p1, p2, p3)):
            decoder.insert_raw_payload(payload, meta(counter))
        fa = self.SCHEME.anchors(a).fps_list()
        fb = self.SCHEME.anchors(b).fps_list()
        regions = [Region(fb[0], 200, 300, 60), Region(fa[0], 0, 10, 80),
                   Region(fa[1], 100, 400, 50), Region(fa[0], 300, 500, 40)]
        for fp in (fa[0], fa[1], fb[0]):
            assert decoder.cache.lookup_previous(fp) is not None
        return decoder, regions

    def decode(self, reference, previous_regions, corrupt_checksum=False):
        """Decode the stale packet whose ``previous_regions`` (indices)
        were encoded against the displaced entries; returns the outcome,
        the store ids read with ``store.get`` and the final LRU order."""
        decoder, regions = self.decoder_with_history()
        cache = decoder.cache
        use_previous = {regions[i].fingerprint for i in previous_regions}
        target = bytearray(400)
        for fp, offset_new, offset_stored, length in regions:
            entry = (cache.table.previous_entry(fp) if fp in use_previous
                     else cache.table.get(fp))
            source = cache.store._data[entry.store_id]
            target[offset_new: offset_new + length] = \
                source[offset_stored: offset_stored + length]
        target = bytes(target)
        wire = encode_payload(target, sorted(regions,
                                             key=lambda r: r.offset_new))
        table_end = ENCODED_HEADER_SIZE + FIELD_SIZE * len(regions)
        wire = (wire[:ENCODED_HEADER_SIZE]
                + b"".join(struct.pack(">QHHH", *r) for r in regions)
                + wire[table_end:])
        if reference:
            decoder._reconstruct_with_history = (
                lambda parsed, checksum:
                closure_history_fallback(decoder, parsed, checksum))
        reads = []
        read = cache.store.get

        def recording_get(store_id):
            reads.append(store_id)
            return read(store_id)

        cache.store.get = recording_get
        checksum = payload_checksum(target) ^ corrupt_checksum
        outcome = decoder.decode(wire, meta(9), checksum=checksum)
        return outcome, target, reads, list(cache.store.ids())

    def test_rescue_reads_the_store_in_the_same_order(self):
        new, target, new_reads, new_lru = self.decode(False, [2])
        ref, _, ref_reads, ref_lru = self.decode(True, [2])
        assert new.status is DecodeStatus.OK_DECODED
        assert new.payload == ref.payload == target
        # Three lookup_previous reads, then four attempts of four regions.
        assert new_reads == ref_reads and len(new_reads) == 3 + 4 * 4
        assert new_lru == ref_lru

    def test_failed_fallback_reads_the_store_in_the_same_order(self):
        new, _, new_reads, new_lru = self.decode(False, [], True)
        ref, _, ref_reads, ref_lru = self.decode(True, [], True)
        assert new.status is ref.status is DecodeStatus.CHECKSUM_MISMATCH
        # Every attempt over three swappable sources: 7 x 4 region reads.
        assert new_reads == ref_reads and len(new_reads) == 3 + 7 * 4
        assert new_lru == ref_lru


class TestCacheSynchronisation:
    def test_caches_stay_aligned_over_stream(self):
        encoder, decoder = make_pair()
        rng = random.Random(9)
        previous = random_payload(rng)
        for i in range(30):
            payload = previous[:700] + random_payload(rng, 760)
            _, decoded = roundtrip(encoder, decoder, payload, meta(i))
            assert decoded.ok
            previous = payload
        assert encoder.cache.table.indexed == decoder.cache.table.indexed

    def test_encoder_never_grows_output_beyond_shim(self):
        encoder, _ = make_pair()
        rng = random.Random(10)
        for i in range(20):
            payload = random_payload(rng, rng.randrange(100, 1460))
            result = encoder.encode(payload, meta(i))
            assert result.bytes_out <= result.bytes_in + 2

    def test_net_loss_region_falls_back_to_raw(self):
        """A single tiny region whose field overhead eats the gain must
        not produce a larger-than-raw packet."""
        encoder, decoder = make_pair()
        rng = random.Random(11)
        shared = random_payload(rng, 16)
        # Force many short windows: payload is mostly fresh with one
        # 16-byte repeat (too small to encode: len must exceed 14... the
        # window w=16 > 14 qualifies only after expansion).
        first = shared + random_payload(rng, 500)
        roundtrip(encoder, decoder, first, meta(1))
        second = random_payload(rng, 250) + shared + random_payload(rng, 250)
        result, decoded = roundtrip(encoder, decoder, second, meta(2))
        assert result.bytes_out <= result.bytes_in + 2
        assert decoded.ok and decoded.payload == second


class TestForceRaw:
    def test_force_raw_disables_fused_path_but_still_caches(self):
        from repro.workload.corpus import corpus_object

        # Fresh + cold + warm traffic (the hot path's three regimes).
        rng = random.Random(0xBC)
        data = corpus_object("file1", seed=3)
        cold = [data[i: i + 1460] for i in range(0, 8 * 1460, 1460)]
        packets = [rng.randbytes(1460) for _ in range(4)] + cold + cold
        encoder, _ = make_pair()
        results = [encoder.encode(payload, meta(i), force_raw=True)
                   for i, payload in enumerate(packets)]
        assert all(not r.encoded for r in results)
        # Cache Update still ran: a second (non-raw) pass over the same
        # bytes should now find everything.
        repeat = [encoder.encode(payload, meta(i))
                  for i, payload in enumerate(packets)]
        assert all(r.encoded for r in repeat)


class TestStats:
    def test_encoder_stats_accumulate(self):
        encoder, decoder = make_pair()
        rng = random.Random(12)
        payload = random_payload(rng)
        roundtrip(encoder, decoder, payload, meta(1))
        roundtrip(encoder, decoder, payload, meta(2))
        stats = encoder.stats
        assert stats.packets == 2
        assert stats.packets_encoded == 1
        assert stats.bytes_in == 2 * 1460
        assert stats.matched_bytes > 1400
        assert 0 < stats.compression_ratio < 1

    def test_decoder_stats_accumulate(self):
        encoder, decoder = make_pair()
        rng = random.Random(13)
        payload = random_payload(rng)
        roundtrip(encoder, decoder, payload, meta(1))
        roundtrip(encoder, decoder, payload, meta(2))
        assert decoder.stats.raw == 1
        assert decoder.stats.decoded == 1
        assert decoder.stats.undecodable == 0


def test_bytes_saved_accounts_for_shim_overhead():
    from repro.core.encoder import EncodeResult
    from repro.core.wire import EPOCH_STAMP_SIZE, SHIM_SIZE

    plain = EncodeResult(data=b"x" * 90, encoded=True,
                         bytes_in=100, bytes_out=90)
    assert plain.shim_overhead == SHIM_SIZE
    assert plain.bytes_saved == 100 - (90 - SHIM_SIZE)

    # A resilience-stamped wire format carries one extra byte; the
    # savings accounting must not charge it as eliminated payload.
    stamped = EncodeResult(data=b"x" * 91, encoded=True,
                           bytes_in=100, bytes_out=91,
                           shim_overhead=SHIM_SIZE + EPOCH_STAMP_SIZE)
    assert stamped.bytes_saved == 100 - (91 - SHIM_SIZE - EPOCH_STAMP_SIZE)
    assert stamped.bytes_saved == plain.bytes_saved


def test_three_phase_mix_encodes_to_the_committed_wire_bytes():
    """What the per-packet encoder emits, pinned: 480 packets through
    one naive-policy encoder, each packet's wire output hashed as
    ``len(data) as 4 big-endian bytes + data``.  The mix covers the hot
    path's three regimes: *fresh* incompressible packets (anchor
    selection and cache updates, every resolve all-miss), a *cold*
    corpus object seen for the first time (intra-object redundancy,
    mixed hits) and the same object again, *warm* (near-total hits:
    lookup and region expansion)."""
    import hashlib

    from repro.core.fingerprint import anchor_memo_clear
    from repro.core.policies import make_policy_pair
    from repro.workload.corpus import corpus_object

    mss = 1460
    rnd = random.Random(0xBC)
    fresh = [rnd.randbytes(mss) for _ in range(96)]
    data = corpus_object("file1", seed=3)
    cold = [data[i: i + mss] for i in range(0, len(data), mss)][:192]
    # The anchor memo is process-wide: start it cold, as the digest did.
    anchor_memo_clear()
    policy, _ = make_policy_pair("naive")
    encoder = ByteCachingEncoder(FingerprintScheme(window=16, zero_bits=4),
                                 ByteCache(16 * 1024 * 1024), policy)
    digest = hashlib.sha256()
    wire_bytes = 0
    for counter, payload in enumerate(fresh + cold + cold):
        result = encoder.encode(payload, PacketMeta(
            packet_id=counter, flow=("bench", 0),
            tcp_seq=counter * mss, counter=counter))
        wire_bytes += result.bytes_out
        digest.update(len(result.data).to_bytes(4, "big"))
        digest.update(result.data)
    assert wire_bytes == 299_142
    assert digest.hexdigest() == ("fe6c372e88692c38e3bf690f17d83ca6"
                                  "4a0b198c77712d6bf4bc22b6457c39f6")
