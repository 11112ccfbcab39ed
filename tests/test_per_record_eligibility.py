"""Eligibility asked once per source packet == asked once per anchor.

The encoder decides ``entry_eligible`` once per distinct cached packet
record and reuses the verdict for that record's other anchors.  On
retransmission-heavy streams (where a segment's ~all anchors hit its
own cached copy) the wire bytes, regions, dependencies and the
``ineligible_hits`` counter must equal those of a reference that asks
the policy about every single anchor (``tests/reference_cache.py``),
over the ring cache and over the dict-table oracle.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cache import ByteCache
from repro.core.encoder import ByteCachingEncoder
from repro.core.fingerprint import FingerprintScheme
from repro.core.policies import PacketMeta, make_policy_pair
from tests.reference_cache import DictByteCache, PerAnchorEncoder

SEGMENT = 360
FLOWS = (("s", 80, "c", 5000), ("s", 80, "c", 5001))

POLICIES = [
    ("tcp_seq", {}),
    ("k_distance", {"k": 3, "mss": SEGMENT}),
    ("adaptive_k", {"k_min": 2, "k_max": 6, "mss": SEGMENT}),
]


def _stream(seed, steps):
    """(payload, flow, segment index) per transmission.

    Segments are stitched from a small block pool, so later segments
    repeat earlier content; a step > 0 re-sends the segment that many
    places back (a retransmission: same bytes, same sequence number).
    """
    rnd = random.Random(seed)
    pool = [rnd.randbytes(SEGMENT // 3) for _ in range(5)]
    segments, sent = [], []
    for step in steps:
        if step and len(segments) >= step:
            index = len(segments) - step
        else:
            index = len(segments)
            segments.append((b"".join(rnd.choice(pool) for _ in range(3)),
                             FLOWS[rnd.random() < 0.25]))
        sent.append(segments[index] + (index,))
    return sent


def _encoders(name, kwargs):
    scheme = FingerprintScheme(window=16, zero_bits=3)
    return [encoder_cls(scheme, cache_cls(1 << 22),
                        make_policy_pair(name, **kwargs)[0])
            for encoder_cls, cache_cls in ((ByteCachingEncoder, ByteCache),
                                           (PerAnchorEncoder, ByteCache),
                                           (PerAnchorEncoder, DictByteCache))]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 16),
       st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, 4]),
                min_size=4, max_size=30),
       st.sampled_from(POLICIES), st.booleans())
def test_per_record_verdicts_match_per_anchor_reference(seed, steps, policy,
                                                        tcp):
    encoders = _encoders(*policy)
    for counter, (payload, flow, index) in enumerate(_stream(seed, steps)):
        meta = PacketMeta(packet_id=counter, flow=flow, counter=counter,
                          tcp_seq=index * SEGMENT if tcp else None)
        results = [encoder.encode(payload, meta) for encoder in encoders]
        for other in results[1:]:
            assert other.data == results[0].data
            assert other.regions == results[0].regions
            assert other.dependencies == results[0].dependencies
    stats = [encoder.stats for encoder in encoders]
    assert stats[0] == stats[1] == stats[2]


@pytest.mark.parametrize("policy", POLICIES[::2])
def test_retransmission_asks_the_policy_once_per_source_packet(policy):
    """The stream the memo exists for, and proof it engages."""
    new, reference, _ = _encoders(*policy)
    asked = {id(new): 0, id(reference): 0}
    for encoder in (new, reference):
        hook = encoder.policy.entry_eligible

        def counting(entry, meta, hook=hook, key=id(encoder)):
            asked[key] += 1
            return hook(entry, meta)

        encoder.policy.entry_eligible = counting
    stream = _stream(3, [0, 0, 0, 0, 1, 2, 0, 1])
    for counter, (payload, flow, index) in enumerate(stream):
        meta = PacketMeta(packet_id=counter, flow=FLOWS[0], counter=counter,
                          tcp_seq=index * SEGMENT)
        assert (new.encode(payload, meta).data
                == reference.encode(payload, meta).data)
    assert new.stats.ineligible_hits == reference.stats.ineligible_hits > 0
    # One question per distinct cached packet, never more than there
    # are packets in the cache; the reference asks per anchor.
    assert asked[id(new)] <= len(stream) * (len(stream) - 1) // 2
    assert asked[id(reference)] > 3 * asked[id(new)]
