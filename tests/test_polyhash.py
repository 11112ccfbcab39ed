"""Unit tests for the vectorised rolling fingerprinter."""

import random

import numpy as np
import pytest

from repro.core.polyhash import PolyFingerprinter, _BASE, _mix


def naive_window_hash(data: bytes, base: int) -> int:
    """Direct evaluation of the pre-mix polynomial definition."""
    mod = 1 << 64
    total = 0
    for j, byte in enumerate(data):
        total = (total + byte * pow(base, j, mod)) % mod
    return total


def test_hashes_match_naive_definition():
    rng = random.Random(1)
    data = bytes(rng.randrange(256) for _ in range(64))
    fingerprinter = PolyFingerprinter(16)
    hashes = fingerprinter.hashes(data)
    for offset in (0, 7, 31, 48):
        window = data[offset: offset + 16]
        expected = _mix(np.array([naive_window_hash(window, int(_BASE))],
                                 dtype=np.uint64))[0]
        assert hashes[offset] == expected


def test_window_count_and_types():
    data = bytes(200)
    fingerprinter = PolyFingerprinter(16)
    hashes = fingerprinter.hashes(data)
    assert len(hashes) == 200 - 16 + 1
    assert hashes.dtype == np.uint64


def test_short_data_empty():
    assert len(PolyFingerprinter(16).hashes(b"abc")) == 0
    assert not PolyFingerprinter(16).anchors(b"abc", 0)


def test_identical_windows_same_hash():
    window = bytes(range(16))
    data = window + b"\x00" * 10 + window
    fingerprinter = PolyFingerprinter(16)
    hashes = fingerprinter.hashes(data)
    assert hashes[0] == hashes[26]


def test_content_defined_anchors_shift_with_content():
    """Anchors are positions of content, not absolute offsets: a prefix
    shift moves every anchor by the same amount."""
    rng = random.Random(5)
    body = bytes(rng.randrange(256) for _ in range(3000))
    fingerprinter = PolyFingerprinter(16)
    anchors = fingerprinter.anchors(body, 0xF)
    shifted = fingerprinter.anchors(b"\x99" * 7 + body, 0xF)
    shifted_set = {(off, fp) for off, fp in shifted}
    preserved = sum(1 for off, fp in anchors
                    if (off + 7, fp) in shifted_set)
    assert preserved >= len(anchors) - 2  # edge windows may change


def test_anchor_density_on_structured_data():
    """The mixing step keeps selection ~2^-k even on ASCII text."""
    text = (b"the quick brown fox jumps over the lazy dog " * 700)
    anchors = PolyFingerprinter(16).anchors(text, 0xF)
    density = len(anchors) / len(text)
    assert 0.02 < density < 0.15


def test_anchors_respect_mask():
    rng = random.Random(6)
    data = bytes(rng.randrange(256) for _ in range(5000))
    for _, fp in PolyFingerprinter(16).anchors(data, 0x3F):
        assert fp & 0x3F == 0


def test_deterministic_across_instances():
    data = bytes(range(256)) * 4
    a = PolyFingerprinter(16).anchors(data, 0xF)
    b = PolyFingerprinter(16).anchors(data, 0xF)
    assert a == b


def test_window_too_small_rejected():
    with pytest.raises(ValueError):
        PolyFingerprinter(0)


def test_mix_is_injective_on_sample():
    values = np.arange(10000, dtype=np.uint64)
    mixed = _mix(values)
    assert len(set(int(v) for v in mixed)) == len(values)


def test_rabin_and_poly_agree_on_selection_rate():
    """The two schemes are interchangeable statistically (DESIGN.md)."""
    from tests.reference_rabin import RabinFingerprinter

    rng = random.Random(7)
    data = bytes(rng.randrange(256) for _ in range(40000))
    rabin_density = len(RabinFingerprinter(16).anchors(data, 0xF)) / len(data)
    poly_density = len(PolyFingerprinter(16).anchors(data, 0xF)) / len(data)
    assert abs(rabin_density - poly_density) < 0.02
