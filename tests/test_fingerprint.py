"""Unit tests for the fingerprint scheme wrapper."""

import pytest

from repro.core.fingerprint import (DEFAULT_WINDOW, DEFAULT_ZERO_BITS,
                                    FingerprintScheme)


def test_defaults_match_paper_parameters():
    scheme = FingerprintScheme()
    assert scheme.window == DEFAULT_WINDOW == 16
    assert scheme.zero_bits == DEFAULT_ZERO_BITS == 4
    assert scheme.mask == 0xF


def test_kind_selects_implementation():
    from repro.core.polyhash import PolyFingerprinter
    from repro.core.rabin import RabinFingerprinter

    assert isinstance(FingerprintScheme(kind="poly")._impl, PolyFingerprinter)
    assert isinstance(FingerprintScheme(kind="rabin")._impl,
                      RabinFingerprinter)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        FingerprintScheme(kind="nope")


@pytest.mark.parametrize("zero_bits", [-1, 33])
def test_zero_bits_bounds(zero_bits):
    with pytest.raises(ValueError):
        FingerprintScheme(zero_bits=zero_bits)


def test_anchors_sorted_by_offset():
    data = bytes(range(256)) * 8
    anchors = FingerprintScheme().anchors(data)
    offsets = [off for off, _ in anchors]
    assert offsets == sorted(offsets)


def test_zero_zero_bits_selects_everything():
    data = bytes(range(64))
    scheme = FingerprintScheme(zero_bits=0)
    assert len(scheme.anchors(data)) == len(data) - scheme.window + 1


def test_identical_schemes_identical_anchors():
    """Encoder and decoder configured alike must select identically —
    the cache-synchronisation prerequisite."""
    data = b"some repeated payload content " * 50
    a = FingerprintScheme(window=16, zero_bits=4, kind="poly")
    b = FingerprintScheme(window=16, zero_bits=4, kind="poly")
    assert a.anchors(data) == b.anchors(data)


def test_expected_anchor_spacing():
    assert FingerprintScheme(zero_bits=4).expected_anchor_spacing() == 16.0
    assert FingerprintScheme(zero_bits=6).expected_anchor_spacing() == 64.0


# ---------------------------------------------------------------------------
# anchor memo: content-keyed, bounded, invisible
# ---------------------------------------------------------------------------

def _payloads(count, size=300):
    import random

    rnd = random.Random(14)
    return [rnd.randbytes(size) for _ in range(count)]


@pytest.mark.parametrize("selection", ["value", "winnowing"])
@pytest.mark.parametrize("kind", ["poly", "rabin"])
def test_memoised_anchors_equal_unmemoised(selection, kind):
    scheme = FingerprintScheme(kind=kind, selection=selection)
    for payload in _payloads(6):
        fresh = scheme._select(payload)
        first = scheme.anchors(payload)
        # An equal-but-distinct bytes object (the decoder's copy) hits.
        again = scheme.anchors(bytes(bytearray(payload)))
        assert again is first
        assert first == fresh
        assert first.offsets.tolist() == fresh.offsets.tolist()


def test_anchor_memo_is_bounded_and_drops_oldest_first():
    from repro.core.fingerprint import ANCHOR_MEMO_SIZE

    assert ANCHOR_MEMO_SIZE <= 256
    scheme = FingerprintScheme()
    payloads = _payloads(ANCHOR_MEMO_SIZE + 40, size=64)
    sets = [scheme.anchors(payload) for payload in payloads]
    assert len(scheme._memo) == ANCHOR_MEMO_SIZE
    assert scheme.anchors(payloads[-1]) is sets[-1]        # newest kept
    assert scheme.anchors(payloads[0]) is not sets[0]      # oldest gone
    assert scheme.anchors(payloads[0]) == sets[0]          # same answer
    assert len(scheme._memo) == ANCHOR_MEMO_SIZE


def test_mutable_buffers_bypass_the_memo():
    scheme = FingerprintScheme()
    buffer = bytearray(_payloads(1)[0])
    before = scheme.anchors(buffer)
    assert not scheme._memo
    buffer[:64] = bytes(64)
    assert scheme.anchors(buffer) != before


def test_memo_is_not_part_of_scheme_identity():
    a = FingerprintScheme(window=16, zero_bits=4)
    b = FingerprintScheme(window=16, zero_bits=4)
    a.anchors(_payloads(1)[0])
    assert a == b
    assert repr(a) == repr(b)
    assert a != FingerprintScheme(window=16, zero_bits=5)
