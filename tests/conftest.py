"""Fixtures every test module gets."""

import pytest

from repro.core.fingerprint import anchor_memo_clear


@pytest.fixture(autouse=True, scope="module")
def _cold_anchor_memo():
    """The anchor memo is process-wide: empty it per test module, so no
    test's anchors, counters or timing depend on what ran before it."""
    anchor_memo_clear()
