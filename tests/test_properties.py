"""Property-based tests (hypothesis) on core invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import (ByteCache, ByteCachingDecoder, ByteCachingEncoder,
                        FingerprintScheme)
from repro.core.policies import (DecoderPolicy, NaivePolicy, PacketMeta,
                                 make_policy_pair)
from repro.core.wire import encode_payload, parse_payload, wrap_raw
from repro.core.checksum import payload_checksum
from repro.net.tcp.sack import RangeSet
from repro.net.tcp.timer import RtoEstimator
from tests.reference_region import (common_prefix_length,
                                    common_suffix_length)
from tests.reference_tcp import gaps

FLOW = ("s", 80, "c", 5000)


# ---------------------------------------------------------------------------
# RangeSet behaves like a set of integers
# ---------------------------------------------------------------------------

range_lists = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 60)).map(
        lambda t: (t[0], t[0] + t[1])),
    max_size=12)


@given(range_lists)
def test_rangeset_matches_model_set(ranges):
    rangeset = RangeSet()
    model = set()
    for start, end in ranges:
        rangeset.add(start, end)
        model.update(range(start, end))
    # Point membership agrees everywhere.
    for value in range(0, 480):
        assert rangeset.contains_point(value) == (value in model)
    # Ranges are disjoint, sorted, non-adjacent.
    spans = list(rangeset)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 < s2
    # Coverage agrees with the model.
    assert rangeset.coverage(0, 480) == len(model)


@given(range_lists, st.integers(0, 460))
def test_rangeset_remove_below_matches_model(ranges, bound):
    rangeset = RangeSet()
    model = set()
    for start, end in ranges:
        rangeset.add(start, end)
        model.update(range(start, end))
    rangeset.remove_below(bound)
    model = {value for value in model if value >= bound}
    assert rangeset.coverage(0, 500) == len(model)


@given(range_lists)
def test_rangeset_gaps_partition(ranges):
    rangeset = RangeSet()
    for start, end in ranges:
        rangeset.add(start, end)
    lo, hi = 0, 480
    covered = rangeset.coverage(lo, hi)
    gap_total = sum(end - start for start, end in gaps(rangeset, lo, hi))
    assert covered + gap_total == hi - lo


# ---------------------------------------------------------------------------
# Wire format roundtrips
# ---------------------------------------------------------------------------

@given(st.binary(max_size=2000))
def test_wrap_raw_roundtrip(payload):
    assert parse_payload(wrap_raw(payload)) == payload


@given(st.binary(min_size=200, max_size=1500), st.data())
def test_encode_payload_roundtrip_with_random_regions(stored, data):
    """Any set of sorted, disjoint regions into a stored payload must
    roundtrip exactly."""
    regions = []
    cursor = 0
    payload = bytearray()
    from repro.core.region import Region

    n_regions = data.draw(st.integers(0, 3))
    for index in range(n_regions):
        gap = data.draw(st.integers(0, 40))
        payload += bytes(data.draw(st.binary(min_size=gap, max_size=gap)))
        length = data.draw(st.integers(16, min(120, len(stored))))
        offset_stored = data.draw(st.integers(0, len(stored) - length))
        regions.append(Region(fingerprint=index + 1,
                              offset_new=len(payload),
                              offset_stored=offset_stored,
                              length=length))
        payload += stored[offset_stored: offset_stored + length]
    payload += bytes(data.draw(st.integers(0, 30)))

    wire = encode_payload(bytes(payload), regions)
    parsed = parse_payload(wire)
    if regions:
        rebuilt = __import__("repro.core.wire", fromlist=["reconstruct"]) \
            .reconstruct(parsed, lambda fp: stored)
        assert rebuilt == bytes(payload)
    else:
        assert parsed == bytes(payload)


# ---------------------------------------------------------------------------
# Encoder/decoder: decode(encode(x)) == x over arbitrary streams
# ---------------------------------------------------------------------------

def _stream_roundtrip(policy_name, payloads):
    scheme = FingerprintScheme()
    enc_policy, dec_policy = make_policy_pair(
        policy_name, **({"k": 4} if policy_name == "k_distance" else {}))
    encoder = ByteCachingEncoder(scheme, ByteCache(), enc_policy)
    decoder = ByteCachingDecoder(scheme, ByteCache(), dec_policy)
    for index, payload in enumerate(payloads):
        meta = PacketMeta(packet_id=index, flow=FLOW, tcp_seq=index * 1460,
                          counter=index)
        result = encoder.encode(payload, meta)
        decoded = decoder.decode(result.data, meta,
                                 checksum=payload_checksum(payload))
        assert decoded.ok, (policy_name, index, decoded.status)
        assert decoded.payload == payload


payload_streams = st.lists(st.binary(min_size=0, max_size=1460),
                           min_size=1, max_size=8)


@settings(max_examples=25, deadline=None)
@given(payload_streams)
def test_lossless_roundtrip_naive(payloads):
    _stream_roundtrip("naive", payloads)


@settings(max_examples=25, deadline=None)
@given(payload_streams)
def test_lossless_roundtrip_cache_flush(payloads):
    _stream_roundtrip("cache_flush", payloads)


@settings(max_examples=25, deadline=None)
@given(payload_streams)
def test_lossless_roundtrip_tcp_seq(payloads):
    _stream_roundtrip("tcp_seq", payloads)


@settings(max_examples=25, deadline=None)
@given(payload_streams)
def test_lossless_roundtrip_k_distance(payloads):
    _stream_roundtrip("k_distance", payloads)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_redundant_stream_roundtrip(data):
    """Streams stitched from a shared chunk pool (worst case for region
    bookkeeping: many overlapping matches) must roundtrip exactly."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    pool = [rng.randbytes(rng.randrange(30, 300)) for _ in range(5)]
    payloads = []
    for _ in range(data.draw(st.integers(2, 8))):
        parts = []
        for _ in range(rng.randrange(1, 5)):
            if rng.random() < 0.6:
                parts.append(pool[rng.randrange(len(pool))])
            else:
                parts.append(rng.randbytes(rng.randrange(0, 120)))
        payloads.append(b"".join(parts)[:1460])
    _stream_roundtrip("naive", payloads)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_decoder_never_accepts_wrong_bytes(data):
    """Whatever the decoder outputs (under arbitrary single-packet
    loss) either matches the original payload or is dropped — never
    silently corrupted."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
    scheme = FingerprintScheme()
    encoder = ByteCachingEncoder(scheme, ByteCache(), NaivePolicy())
    decoder = ByteCachingDecoder(scheme, ByteCache(), DecoderPolicy())
    pool = [rng.randbytes(200) for _ in range(4)]
    for index in range(10):
        payload = (pool[rng.randrange(4)] + rng.randbytes(rng.randrange(100))
                   + pool[rng.randrange(4)])
        meta = PacketMeta(packet_id=index, flow=FLOW, tcp_seq=index * 1460,
                          counter=index)
        result = encoder.encode(payload, meta)
        if rng.random() < 0.4:
            continue  # the packet is lost: decoder never sees it
        decoded = decoder.decode(result.data, meta,
                                 checksum=payload_checksum(payload))
        if decoded.ok:
            assert decoded.payload == payload


# ---------------------------------------------------------------------------
# Policy safety invariants, machine-checked by the verify oracles
# ---------------------------------------------------------------------------
#
# The §V policies' emission-time safety properties are re-checked
# independently by repro.verify.oracles; these properties drive random
# transmission schedules — in-order segments, retransmissions, losses —
# through harness-attached cores and assert the oracles stay silent for
# the robust policies and trip for the naive one.

def _armed_pair(policy_name, **kwargs):
    from repro.verify import VerificationHarness

    scheme = FingerprintScheme()
    enc_policy, dec_policy = make_policy_pair(policy_name, **kwargs)
    encoder = ByteCachingEncoder(scheme, ByteCache(), enc_policy)
    decoder = ByteCachingDecoder(scheme, ByteCache(), dec_policy)
    VerificationHarness().attach_cores(encoder, decoder)
    return encoder, decoder


def _retransmission_schedule(policy_name, data, **kwargs):
    """Random schedule with retransmissions and losses: the robust
    policies must never trip an oracle, and every accepted decode must
    be byte-exact."""
    from repro.sim.rng import RngRegistry

    rng = RngRegistry(data.draw(st.integers(0, 2 ** 16))).stream(
        f"properties.{policy_name}")
    encoder, decoder = _armed_pair(policy_name, **kwargs)
    pool = [rng.randbytes(rng.randrange(100, 400)) for _ in range(4)]
    segments = []
    for index in range(data.draw(st.integers(2, 8))):
        parts = [pool[rng.randrange(len(pool))]
                 for _ in range(rng.randrange(1, 4))]
        segments.append(b"".join(parts)[:1460])

    # In-order pass, then random retransmissions of earlier segments.
    order = list(range(len(segments)))
    for _ in range(data.draw(st.integers(0, 4))):
        order.append(rng.randrange(len(segments)))

    for counter, index in enumerate(order):
        payload = segments[index]
        meta = PacketMeta(packet_id=counter, flow=FLOW,
                          tcp_seq=index * 1460, counter=counter)
        result = encoder.encode(payload, meta)      # oracles judge here
        if rng.random() < 0.3:
            continue                                 # carrier lost
        decoded = decoder.decode(result.data, meta,
                                 checksum=payload_checksum(payload))
        if decoded.ok:
            assert decoded.payload == payload


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_cache_flush_safety_oracle_silent(data):
    _retransmission_schedule("cache_flush", data)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_tcp_seq_safety_oracle_silent(data):
    _retransmission_schedule("tcp_seq", data)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_k_distance_safety_oracle_silent(data):
    _retransmission_schedule("k_distance", data, k=4)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16))
def test_naive_retransmission_trips_circular_dependency_oracle(seed):
    """The §IV failure, as a property: any cached payload retransmitted
    under the naive policy is encoded against itself, and the oracle
    catches it at emission time."""
    import pytest

    from repro.sim.rng import RngRegistry
    from repro.verify import InvariantViolation

    payload = RngRegistry(seed).stream("properties.naive").randbytes(1460)
    encoder, _decoder = _armed_pair("naive")
    first = encoder.encode(payload, PacketMeta(packet_id=0, flow=FLOW,
                                               tcp_seq=0, counter=0))
    retransmission = PacketMeta(packet_id=1, flow=FLOW, tcp_seq=0, counter=1)
    if not first.cached or not list(encoder.scheme.anchors(payload)):
        return  # nothing in the cache to self-reference
    with pytest.raises(InvariantViolation) as excinfo:
        encoder.encode(payload, retransmission)
    assert excinfo.value.oracle == "circular_dependency"


# ---------------------------------------------------------------------------
# Misc invariants
# ---------------------------------------------------------------------------

@given(st.binary(min_size=1, max_size=300), st.binary(min_size=1, max_size=300))
def test_common_runs_are_consistent(a, b):
    limit = min(len(a), len(b))
    prefix = common_prefix_length(a, 0, b, 0, limit)
    assert a[:prefix] == b[:prefix]
    assert prefix == limit or a[prefix] != b[prefix]
    suffix = common_suffix_length(a, len(a), b, len(b), limit)
    assert suffix == 0 or a[len(a) - suffix:] == b[len(b) - suffix:]


@given(st.lists(st.floats(0.001, 5.0), min_size=1, max_size=50))
def test_rto_always_within_clamps(samples):
    estimator = RtoEstimator(min_rto=0.2, max_rto=8.0)
    for sample in samples:
        estimator.sample(sample)
        assert 0.2 <= estimator.rto <= 8.0


@given(st.binary(min_size=16, max_size=600))
def test_anchor_offsets_in_bounds(data):
    scheme = FingerprintScheme()
    for offset, fingerprint in scheme.anchors(data):
        assert 0 <= offset <= len(data) - scheme.window
        assert fingerprint & scheme.mask == 0
