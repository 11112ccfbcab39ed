"""Adversarial-input fuzzing: the decoder must never crash and never
silently accept wrong bytes, whatever arrives on the wire.

All randomness comes from hypothesis draws or named
:class:`~repro.sim.rng.RngRegistry` streams seeded by draws — no
module-level ``random`` state, so failures replay bit-identically from
the hypothesis seed alone.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import (ByteCache, ByteCachingDecoder, ByteCachingEncoder,
                        FingerprintScheme)
from repro.core.decoder import DecodeStatus
from repro.core.policies import DecoderPolicy, NaivePolicy, PacketMeta
from repro.core.wire import WireFormatError, parse_payload
from repro.core.checksum import payload_checksum
from repro.sim.rng import RngRegistry

FLOW = ("s", 80, "c", 5000)


def _stream(data, name):
    """A named deterministic stream keyed by a hypothesis-drawn seed."""
    seed = data.draw(st.integers(0, 2 ** 16))
    return RngRegistry(seed).stream(name)


@given(st.binary(max_size=4000))
def test_parse_payload_never_crashes(blob):
    """Arbitrary bytes either parse or raise WireFormatError — nothing
    else escapes."""
    try:
        parse_payload(blob)
    except WireFormatError:
        pass


@given(st.binary(min_size=2, max_size=4000))
def test_decoder_never_crashes_on_garbage(blob):
    scheme = FingerprintScheme()
    decoder = ByteCachingDecoder(scheme, ByteCache(), DecoderPolicy())
    result = decoder.decode(blob, PacketMeta(packet_id=1, flow=FLOW),
                            checksum=0)
    assert result.status in DecodeStatus


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tampered_encodings_never_accepted_as_wrong_bytes(data):
    """Flip bytes anywhere in a genuine encoded payload: the decoder
    must either reconstruct the exact original (flip was in a region it
    could tolerate — impossible here since any accepted decode must
    match the checksum) or drop the packet."""
    rng = _stream(data, "fuzz.tampered")
    scheme = FingerprintScheme()
    encoder = ByteCachingEncoder(scheme, ByteCache(), NaivePolicy())
    decoder = ByteCachingDecoder(scheme, ByteCache(), DecoderPolicy())

    base = rng.randbytes(1460)
    meta0 = PacketMeta(packet_id=0, flow=FLOW, tcp_seq=0, counter=0)
    result0 = encoder.encode(base, meta0)
    decoder.decode(result0.data, meta0, checksum=payload_checksum(base))

    payload = base[:900] + rng.randbytes(560)
    meta1 = PacketMeta(packet_id=1, flow=FLOW, tcp_seq=1460, counter=1)
    result1 = encoder.encode(payload, meta1)
    assert result1.encoded

    wire = bytearray(result1.data)
    n_flips = data.draw(st.integers(1, 6))
    for _ in range(n_flips):
        position = data.draw(st.integers(0, len(wire) - 1))
        wire[position] ^= data.draw(st.integers(1, 255))

    outcome = decoder.decode(bytes(wire), meta1,
                             checksum=payload_checksum(payload))
    if outcome.ok:
        assert outcome.payload == payload  # flips cancelled out / benign
    else:
        assert outcome.payload is None


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_truncated_encodings_rejected(data):
    rng = _stream(data, "fuzz.truncated")
    scheme = FingerprintScheme()
    encoder = ByteCachingEncoder(scheme, ByteCache(), NaivePolicy())
    decoder = ByteCachingDecoder(scheme, ByteCache(), DecoderPolicy())
    base = rng.randbytes(1460)
    meta0 = PacketMeta(packet_id=0, flow=FLOW, tcp_seq=0, counter=0)
    result0 = encoder.encode(base, meta0)
    decoder.decode(result0.data, meta0, checksum=payload_checksum(base))
    meta1 = PacketMeta(packet_id=1, flow=FLOW, tcp_seq=1460, counter=1)
    result1 = encoder.encode(base, meta1)
    cut = data.draw(st.integers(0, max(0, len(result1.data) - 1)))
    outcome = decoder.decode(result1.data[:cut], meta1,
                             checksum=payload_checksum(base))
    if outcome.ok:
        assert outcome.payload == base
    else:
        assert outcome.status in (DecodeStatus.MALFORMED,
                                  DecodeStatus.CHECKSUM_MISMATCH,
                                  DecodeStatus.MISSING)


# ---------------------------------------------------------------------------
# scenario fuzzer determinism (repro.verify.fuzz)
# ---------------------------------------------------------------------------

def test_scenario_fuzzer_does_not_touch_global_random_state():
    """Generating and running a fuzz case must not consume or perturb
    the module-level ``random`` stream — all its randomness flows
    through named RngRegistry streams."""
    from repro.verify.fuzz import generate_case, run_case

    random.seed(1234)
    expected = [random.random() for _ in range(5)]
    random.seed(1234)
    case = generate_case(7, 0)
    run_case(case)
    observed = [random.random() for _ in range(5)]
    assert observed == expected


def test_scenario_fuzzer_outcome_is_reproducible():
    """The same case runs to the identical observable outcome."""
    from repro.verify.fuzz import generate_case, run_case

    case = generate_case(7, 2)
    first = run_case(case)
    second = run_case(case)
    assert first == second
