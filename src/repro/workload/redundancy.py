"""Dependency-controlled synthetic files.

§VI evaluates two files distinguished by their *average number of
dependencies to distinct IP packets*: File 1 averages 4, File 2
averages 7, and the paper shows the higher-degree file is more
sensitive to loss because dependencies correlate losses.

The generator builds a file as a sequence of MSS-sized blocks (so TCP
segmentation of a straight ``send(file)`` aligns block == packet).
Each block after the first copies chunks from ``d_i`` distinct earlier
blocks (``d_i`` ~ Poisson(avg_dependencies), clipped), separated by
fresh random bytes.  The copied fraction per block is the target
``redundancy``; chunk lengths comfortably exceed the fingerprint window
so the encoder can find them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

DEFAULT_MSS = 1460

#: Shortest copied chunk: longer than a fingerprint window plus the
#: 14-byte encoding header, so every chunk is encodable.
MIN_CHUNK = 48


@dataclass
class DependencyFileSpec:
    """Parameters of a dependency-controlled file."""

    size: int
    avg_dependencies: float = 4.0
    redundancy: float = 0.5
    history_window: int = 32     # how far back chunks may be copied from
    locality_scale: float = 5.0  # mean back-distance of a copied chunk
    seed: int = 0


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (lam is small here)."""
    import math

    limit = math.exp(-lam)
    k = 0
    product = rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


def generate_dependency_file(spec: DependencyFileSpec) -> bytes:
    """Generate the file described by ``spec`` (deterministic in seed)."""
    if spec.size <= 0:
        raise ValueError("size must be positive")
    if not 0.0 <= spec.redundancy < 0.95:
        raise ValueError("redundancy must be in [0, 0.95)")
    rng = random.Random(spec.seed)
    n_blocks = (spec.size + DEFAULT_MSS - 1) // DEFAULT_MSS
    blocks: List[bytes] = []
    for index in range(n_blocks):
        block_len = min(DEFAULT_MSS, spec.size - index * DEFAULT_MSS)
        blocks.append(_make_block(rng, spec, blocks, index, block_len))
    return b"".join(blocks)


def _make_block(rng: random.Random, spec: DependencyFileSpec,
                blocks: List[bytes], index: int, block_len: int) -> bytes:
    if index == 0 or spec.redundancy == 0.0 or block_len < 4 * MIN_CHUNK:
        return rng.randbytes(block_len)

    lo = max(0, index - spec.history_window)
    deps = _poisson(rng, spec.avg_dependencies)
    deps = max(1, min(deps, index - lo, block_len // (2 * MIN_CHUNK)))
    sources = _pick_sources(rng, lo, index, deps, spec.locality_scale)

    copy_budget = int(block_len * spec.redundancy)
    per_chunk = max(MIN_CHUNK, copy_budget // deps)
    parts: List[bytes] = []
    used = 0
    gap_budget = block_len - min(copy_budget, per_chunk * deps)
    gaps = _split_gap(rng, gap_budget, deps + 1)
    for i, source_index in enumerate(sources):
        parts.append(rng.randbytes(gaps[i]))
        used += gaps[i]
        source = blocks[source_index]
        chunk_len = min(per_chunk, block_len - used, len(source))
        if chunk_len < MIN_CHUNK:
            continue
        start = rng.randrange(0, max(1, len(source) - chunk_len + 1))
        parts.append(source[start: start + chunk_len])
        used += chunk_len
    parts.append(rng.randbytes(max(0, block_len - used)))
    block = b"".join(parts)[:block_len]
    if len(block) < block_len:
        block += rng.randbytes(block_len - len(block))
    return block


def _pick_sources(rng: random.Random, lo: int, index: int, deps: int,
                  locality_scale: float) -> List[int]:
    """Pick ``deps`` distinct source blocks with recency bias.

    Back-distances are ~geometric with mean ``locality_scale``, matching
    the short-range temporal locality of real content (and making the
    k-distance reference window meaningful: most redundancy is within a
    handful of packets, with a tail out to ``history_window``).
    """
    chosen: List[int] = []
    seen = set()
    attempts = 0
    while len(chosen) < deps and attempts < 50 * deps:
        attempts += 1
        back = 1 + int(rng.expovariate(1.0 / max(0.5, locality_scale)))
        source = index - back
        if source < lo or source in seen:
            continue
        seen.add(source)
        chosen.append(source)
    for source in range(index - 1, lo - 1, -1):
        if len(chosen) >= deps:
            break
        if source not in seen:
            seen.add(source)
            chosen.append(source)
    return chosen


def _split_gap(rng: random.Random, total: int, parts: int) -> List[int]:
    """Split ``total`` filler bytes into ``parts`` random-ish gaps."""
    if parts <= 0:
        return []
    base = total // parts
    gaps = [base] * parts
    remainder = total - base * parts
    for _ in range(remainder):
        gaps[rng.randrange(parts)] += 1
    # Shuffle a little so gaps differ without changing the sum.
    for i in range(parts - 1):
        if gaps[i] > 8:
            shift = rng.randrange(0, gaps[i] // 2)
            gaps[i] -= shift
            gaps[i + 1] += shift
    return gaps
