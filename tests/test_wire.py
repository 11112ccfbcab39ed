"""Unit tests for the encoded-packet wire format."""

import pytest

from repro.core.region import Region
from repro.core.wire import (ENCODED_HEADER_SIZE, FIELD_SIZE,
                             MIN_REGION_LENGTH, EncodedPayload,
                             MissingFingerprintError, WireFormatError,
                             encode_payload, parse_payload, reconstruct,
                             wrap_raw)


def region(fp=0xAB, off_new=0, off_stored=0, length=20):
    return Region(fingerprint=fp, offset_new=off_new,
                  offset_stored=off_stored, length=length)


class TestRawPath:
    def test_wrap_and_parse_raw(self):
        payload = b"hello world"
        shimmed = wrap_raw(payload)
        assert len(shimmed) == len(payload) + 2
        assert parse_payload(shimmed) == payload

    def test_empty_payload(self):
        assert parse_payload(wrap_raw(b"")) == b""


class TestEncodedPath:
    def test_roundtrip_single_region(self):
        stored = bytes(range(200))
        payload = b"head" + stored[50:100] + b"tail"
        regions = [region(off_new=4, off_stored=50, length=50)]
        wire = encode_payload(payload, regions)
        parsed = parse_payload(wire)
        assert isinstance(parsed, EncodedPayload)
        rebuilt = reconstruct(parsed, lambda fp: stored)
        assert rebuilt == payload

    def test_roundtrip_multiple_regions(self):
        stored = bytes(range(256))
        payload = (b"A" * 10 + stored[0:30] + b"B" * 5
                   + stored[100:140] + b"C" * 7)
        regions = [
            Region(fingerprint=1, offset_new=10, offset_stored=0, length=30),
            Region(fingerprint=2, offset_new=45, offset_stored=100, length=40),
        ]
        wire = encode_payload(payload, regions)
        rebuilt = reconstruct(parse_payload(wire), lambda fp: stored)
        assert rebuilt == payload

    def test_field_size_matches_paper(self):
        """§III-B: fp 8 B + offsets 2+2 B + length 2 B = 14 bytes."""
        assert FIELD_SIZE == 14
        assert MIN_REGION_LENGTH == 15  # encode only when len > 14

    def test_wire_size_accounting(self):
        stored = bytes(range(200))
        payload = stored[:100] + b"x" * 60
        regions = [region(off_new=0, off_stored=0, length=100)]
        wire = encode_payload(payload, regions)
        assert len(wire) == ENCODED_HEADER_SIZE + FIELD_SIZE + 60

    def test_no_regions_is_raw(self):
        wire = encode_payload(b"data", [])
        assert parse_payload(wire) == b"data"

    def test_region_at_payload_end(self):
        stored = bytes(range(100))
        payload = b"pre" + stored[20:70]
        regions = [region(off_new=3, off_stored=20, length=50)]
        rebuilt = reconstruct(parse_payload(encode_payload(payload, regions)),
                              lambda fp: stored)
        assert rebuilt == payload

    def test_whole_payload_region(self):
        stored = bytes(range(220))
        payload = stored[10:210]
        regions = [region(off_new=0, off_stored=10, length=200)]
        wire = encode_payload(payload, regions)
        assert len(wire) == ENCODED_HEADER_SIZE + FIELD_SIZE
        rebuilt = reconstruct(parse_payload(wire), lambda fp: stored)
        assert rebuilt == payload


class TestErrors:
    def test_overlapping_regions_rejected_on_encode(self):
        payload = bytes(100)
        regions = [region(off_new=0, length=50),
                   region(fp=2, off_new=30, length=40)]
        with pytest.raises(WireFormatError):
            encode_payload(payload, regions)

    def test_region_past_payload_rejected(self):
        with pytest.raises(WireFormatError):
            encode_payload(bytes(30), [region(off_new=20, length=20)])

    def test_oversized_payload_rejected(self):
        with pytest.raises(WireFormatError):
            encode_payload(bytes(70000), [region()])

    def test_bad_magic(self):
        with pytest.raises(WireFormatError):
            parse_payload(b"\x00\x00payload")

    def test_truncated_shim(self):
        with pytest.raises(WireFormatError):
            parse_payload(b"\xd5")

    def test_bad_flags(self):
        with pytest.raises(WireFormatError):
            parse_payload(bytes([0xD5, 0x7F]) + b"rest")

    def test_truncated_field_table(self):
        stored = bytes(range(100))
        payload = stored[:30] + stored[40:70]
        wire = encode_payload(payload, [region(length=30),
                                        region(fp=2, off_new=30,
                                               off_stored=40, length=30)])
        for cut in (ENCODED_HEADER_SIZE + 5,
                    ENCODED_HEADER_SIZE + FIELD_SIZE + 1,
                    ENCODED_HEADER_SIZE + 2 * FIELD_SIZE - 1):
            with pytest.raises(WireFormatError, match="truncated field table"):
                parse_payload(wire[:cut])

    def test_missing_fingerprint_raises(self):
        stored = bytes(range(100))
        payload = stored[:50]
        parsed = parse_payload(encode_payload(payload, [region(length=50)]))
        with pytest.raises(MissingFingerprintError) as excinfo:
            reconstruct(parsed, lambda fp: None)
        assert excinfo.value.fingerprint == 0xAB

    def test_region_exceeding_cached_payload(self):
        stored = bytes(range(100))
        parsed = parse_payload(encode_payload(
            stored[60:100], [region(off_stored=60, length=40)]))
        assert reconstruct(parsed, lambda fp: stored) == stored[60:100]
        for short in (stored[:10], stored[:99]):
            with pytest.raises(WireFormatError,
                               match="region exceeds cached payload"):
                reconstruct(parsed, lambda fp, short=short: short)

    def test_overlapping_regions_rejected_on_reconstruct(self):
        stored = bytes(range(100))
        parsed = EncodedPayload(60, [region(length=40),
                                     region(fp=2, off_new=30, length=30)], b"")
        with pytest.raises(WireFormatError, match="overlapping regions"):
            reconstruct(parsed, lambda fp: stored)

    def test_unsorted_field_table_reconstructs(self):
        """The decoder splices in offset order whatever order the
        fields arrive in."""
        stored = bytes(range(256))
        payload = (b"A" * 10 + stored[0:30] + b"B" * 5
                   + stored[100:140] + b"C" * 7)
        wire = encode_payload(payload, [
            Region(1, 10, 0, 30), Region(2, 45, 100, 40)])
        first = ENCODED_HEADER_SIZE
        second = first + FIELD_SIZE
        end = second + FIELD_SIZE
        swapped = (wire[:first] + wire[second:end] + wire[first:second]
                   + wire[end:])
        parsed = parse_payload(swapped)
        assert [field[0] for field in parsed.regions] == [2, 1]
        assert reconstruct(parsed, lambda fp: stored) == payload

    def test_length_mismatch_detected(self):
        stored = bytes(range(100))
        payload = stored[:50] + b"xx"
        wire = bytearray(encode_payload(payload, [region(length=50)]))
        wire[5] += 1  # corrupt orig_len
        with pytest.raises(WireFormatError):
            reconstruct(parse_payload(bytes(wire)), lambda fp: stored)
