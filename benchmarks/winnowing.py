"""Winnowing anchor selection (Schleimer et al., SIGMOD 2003).

The paper selects anchors by *value sampling* — keep fingerprints whose
last k bits are zero (§III-A) — which is simple but gives geometric
gaps between anchors: long stretches of a packet can end up with no
anchor at all, and a repeat that falls entirely inside such a stretch
is never found.  *Winnowing*, used by later redundancy-elimination
systems (e.g. EndRE's SampleByte ancestry), slides a window of ``w``
consecutive fingerprints and keeps each window's minimum, guaranteeing
at least one anchor in every ``w`` positions.

Both schemes are content-defined (encoder and decoder select
identically from the same bytes), so they are drop-in alternatives;
``bench_sampling.py`` measures the recall/savings trade with
:class:`WinnowingScheme`.  The paper's rule is the only one ``src/``
selects by; this ablation alternative lives beside its benchmark.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.fingerprint import FingerprintScheme
from repro.core.polyhash import AnchorSet


def winnow_positions(hashes: np.ndarray, window: int) -> List[int]:
    """Indices selected by winnowing over ``hashes``.

    In each window of ``window`` consecutive positions the minimum hash
    is selected (rightmost minimum on ties, per the original paper);
    duplicates collapse.
    """
    n = len(hashes)
    if n == 0:
        return []
    if n <= window:
        return [int(n - 1 - np.argmin(hashes[::-1]))]
    view = np.lib.stride_tricks.sliding_window_view(hashes, window)
    # Rightmost minimum: argmin over the reversed window.
    reversed_argmin = np.argmin(view[:, ::-1], axis=1)
    positions = np.arange(len(view)) + (window - 1 - reversed_argmin)
    return sorted(set(int(p) for p in positions))


class WinnowingScheme(FingerprintScheme):
    """Winnowing over the polynomial fingerprints.

    The expected anchor density is matched to value sampling by a
    selection window of ``2**zero_bits`` fingerprints.
    """

    def _select(self, data: bytes) -> AnchorSet:
        hashes = self._impl.hashes(data)
        positions = winnow_positions(hashes, max(2, 1 << self.zero_bits))
        indices = np.asarray(positions, dtype=np.int64)
        return AnchorSet(indices, hashes[indices])
