"""Unit tests for the fingerprint scheme wrapper."""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.winnowing import WinnowingScheme
from repro.core import fingerprint
from repro.core.fingerprint import (DEFAULT_WINDOW, DEFAULT_ZERO_BITS,
                                    FingerprintScheme, anchor_memo_clear,
                                    anchor_memo_stats)
from tests.reference_rabin import RabinScheme
from tests.test_winnowing import RabinWinnowingScheme

#: (fingerprinter, selection rule) -> the scheme class that implements it.
SCHEMES = {("poly", "value"): FingerprintScheme,
           ("rabin", "value"): RabinScheme,
           ("poly", "winnowing"): WinnowingScheme,
           ("rabin", "winnowing"): RabinWinnowingScheme}


def test_defaults_match_paper_parameters():
    scheme = FingerprintScheme()
    assert scheme.window == DEFAULT_WINDOW == 16
    assert scheme.zero_bits == DEFAULT_ZERO_BITS == 4
    assert scheme.mask == 0xF


def test_kind_selects_implementation():
    """The production scheme selects with the polynomial fingerprinter;
    the reference selects with Rabin's, through the same interface."""
    from repro.core.polyhash import PolyFingerprinter
    from tests.reference_rabin import RabinFingerprinter, anchor_set

    data = bytes(range(256)) * 8
    assert FingerprintScheme()._select(data) == \
        PolyFingerprinter(16).anchors(data, 0xF)
    assert RabinScheme()._select(data) == \
        anchor_set(RabinFingerprinter(16).anchors(data, 0xF))


def test_unknown_kind_rejected():
    """No fingerprinter kind is a knob: a reference is a subclass."""
    assert [f.name for f in fields(FingerprintScheme) if f.init] == \
        ["window", "zero_bits"]
    with pytest.raises(TypeError):
        FingerprintScheme(kind="rabin")


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
    a = FingerprintScheme(window=16, zero_bits=4)
    b = FingerprintScheme(window=16, zero_bits=4)
    assert a.anchors(data) == b.anchors(data)


# ---------------------------------------------------------------------------
# anchor memo: content-addressed, byte-bounded, process-wide, invisible
# ---------------------------------------------------------------------------

def _payloads(count, size=300):
    import random

    rnd = random.Random(14)
    return [rnd.randbytes(size) for _ in range(count)]


def _same_anchors(got, want):
    return (got.offsets.tolist() == want.offsets.tolist()
            and got.fingerprints.tolist() == want.fingerprints.tolist())


@pytest.mark.parametrize("selection", ["value", "winnowing"])
@pytest.mark.parametrize("kind", ["poly", "rabin"])
def test_memoised_anchors_equal_unmemoised(selection, kind):
    anchor_memo_clear()
    scheme = SCHEMES[kind, selection]()
    for payload in _payloads(6):
        fresh = scheme._select(payload)
        first = scheme.anchors(payload)
        # An equal-but-distinct bytes object (the decoder's copy) hits,
        # and so does another scheme of the same parameters.
        again = scheme.anchors(bytes(bytearray(payload)))
        other = SCHEMES[kind, selection]()
        for got in (first, again, other.anchors(payload)):
            assert got == fresh
            assert _same_anchors(got, fresh)
    assert anchor_memo_stats()["misses"] == 6
    assert anchor_memo_stats()["hits"] == 12


def test_anchor_memo_is_bounded_and_drops_oldest_first(monkeypatch):
    budget = 64 * 1024
    monkeypatch.setattr(fingerprint, "ANCHOR_MEMO_BYTES", budget)
    anchor_memo_clear()
    scheme = FingerprintScheme()
    payloads = _payloads(200, size=1460)
    sets = [scheme.anchors(payload) for payload in payloads]
    stats = anchor_memo_stats()
    assert stats["misses"] == 200 and stats["hits"] == 0
    assert 0 < stats["bytes"] <= budget
    kept = 200 - stats["evictions"]
    assert 0 < kept < 200 and len(scheme._memo.entries) == kept
    newest = scheme.anchors(payloads[-1])
    assert _same_anchors(newest, sets[-1])                  # newest kept
    assert anchor_memo_stats()["hits"] == 1
    with pytest.raises(ValueError):     # a hit is a read-only view
        newest.offsets[0] = 0
    assert _same_anchors(scheme.anchors(payloads[0]), sets[0])  # oldest gone,
    assert anchor_memo_stats()["misses"] == 201                 # same answer
    assert anchor_memo_stats()["evictions"] == stats["evictions"] + 1
    # The bound is bytes, not entries: short payloads fit many more.
    anchor_memo_clear()
    for payload in _payloads(2 * kept, size=64):
        scheme.anchors(payload)
    stats = anchor_memo_stats()
    assert stats["evictions"] == 0 and stats["bytes"] <= budget


def test_mutable_buffers_bypass_the_memo():
    anchor_memo_clear()
    scheme = FingerprintScheme()
    buffer = bytearray(_payloads(1)[0])
    before = scheme.anchors(buffer)
    assert not scheme._memo.entries
    buffer[:64] = bytes(64)
    assert scheme.anchors(buffer) != before
    assert anchor_memo_stats() == {"hits": 0, "misses": 0, "evictions": 0,
                                   "bytes": 0}
    # A payload whose offsets would not fit the stored uint16 is
    # computed every time and never held.
    long = _payloads(1, size=70_000)[0]
    for _ in range(2):
        assert scheme.anchors(long).offsets.max() > 0xFFFF
    assert anchor_memo_stats() == {"hits": 0, "misses": 2, "evictions": 0,
                                   "bytes": 0}


_PARAMETERS = st.tuples(st.sampled_from(sorted(SCHEMES.values(),
                                                key=lambda c: c.__name__)),
                        st.integers(min_value=0, max_value=6))


@settings(max_examples=60, deadline=None)
@given(payload=st.binary(max_size=400), first=_PARAMETERS,
       second=_PARAMETERS)
def test_memo_answers_as_select_does_and_never_across_parameters(
        payload, first, second):
    """The scheme class is a memo parameter: a reference subclass is
    never answered from the production scheme's anchors."""
    anchor_memo_clear()
    (cls_a, bits_a), (cls_b, bits_b) = first, second
    a, b = cls_a(zero_bits=bits_a), cls_b(zero_bits=bits_b)
    assert (a._memo is b._memo) == (first == second)
    for scheme in (a, b):
        fresh = scheme._select(payload)
        misses = scheme._memo.misses
        assert _same_anchors(scheme.anchors(payload), fresh)    # computed
        assert _same_anchors(scheme.anchors(payload), fresh)    # recalled
        # The other parameter set's entry for these bytes served
        # neither call: the first was a miss unless the memo is shared.
        assert scheme._memo.misses == misses + (
            0 if scheme is b and first == second else 1)


def test_ten_thousand_payloads_stay_within_the_byte_budget():
    import random
    import tracemalloc

    anchor_memo_clear()
    scheme = FingerprintScheme()
    scheme.anchors(bytes(1460))         # size the power tables first
    rnd = random.Random(24)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(10_000):
            scheme.anchors(rnd.randbytes(1460))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stats = anchor_memo_stats()
    assert stats["misses"] == 10_001 and stats["evictions"] > 5_000
    assert stats["bytes"] <= fingerprint.ANCHOR_MEMO_BYTES
    assert peak - before <= 1.25 * fingerprint.ANCHOR_MEMO_BYTES


def test_second_transfer_of_a_config_computes_no_anchor_set():
    """Every testbed of the process shares the memo: the repeat of a
    cell fingerprints nothing, and nothing but host time differs."""
    from dataclasses import replace

    from repro import ExperimentConfig, run_transfer

    anchor_memo_clear()
    config = ExperimentConfig(corpus="file1", file_size=120_000,
                              policy="tcp_seq", loss_rate=0.05, seed=3,
                              profile=True)
    first, second = run_transfer(config), run_transfer(config)
    assert first.profile["anchor_memo"]["misses"] > 0
    assert second.profile["anchor_memo"]["misses"] == 0
    assert second.profile["anchor_memo"]["hits"] == (
        first.profile["anchor_memo"]["hits"]
        + first.profile["anchor_memo"]["misses"])
    assert replace(second, profile=None) == replace(first, profile=None)


def test_memo_is_not_part_of_scheme_identity():
    a = FingerprintScheme(window=16, zero_bits=4)
    b = FingerprintScheme(window=16, zero_bits=4)
    a.anchors(_payloads(1)[0])
    assert a == b
    assert repr(a) == repr(b)
    assert a != FingerprintScheme(window=16, zero_bits=5)
