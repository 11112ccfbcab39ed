"""Named corpus registry used by experiments and examples.

Central place mapping the paper's evaluation objects to generator
calls, so every bench/test refers to, say, ``corpus_object("file1")``
and gets byte-identical content for a given seed.
"""

from __future__ import annotations

from typing import Callable, Dict

from .objects import generate_ebook, generate_video, generate_webpage_session
from .redundancy import DependencyFileSpec, generate_dependency_file

#: Size of the e-book the paper retrieves in §IV-C ("587,567 bytes").
PAPER_EBOOK_SIZE = 587_567

#: Default size for the two evaluation files of §VI (same ballpark).
EVAL_FILE_SIZE = 574 * 1024


def _file1(size: int, seed: int) -> bytes:
    """File 1 of §VI: average dependency degree ≈ 4.

    The Poisson parameter is slightly below the target because clipping
    (at least one dependency per redundant block) and incidental chunk
    sharing push the realised mean up; measured on the generated file
    (``tests/test_workload.py``), it lands at ≈ 4.
    """
    return generate_dependency_file(DependencyFileSpec(
        size=size, avg_dependencies=3.3, redundancy=0.5, seed=seed))


def _file2(size: int, seed: int) -> bytes:
    """File 2 of §VI: average dependency degree ≈ 7 (see _file1 note)."""
    return generate_dependency_file(DependencyFileSpec(
        size=size, avg_dependencies=6.3, redundancy=0.5, seed=seed))


def _random_file(size: int, seed: int) -> bytes:
    """Incompressible control: no intra-file redundancy at all."""
    import random

    return random.Random(seed).randbytes(size)


def _longhaul(size: int, seed: int) -> bytes:
    """Long-range redundancy: matches point far behind the TCP window.

    With short-range redundancy a cache divergence self-heals within a
    retransmission or two (the referenced bytes are still in flight);
    here the decoder needs its *old* entries, so a cold restart or a
    one-sided eviction hurts persistently until the caches are actively
    resynchronised.  The chaos campaigns' default object.
    """
    return generate_dependency_file(DependencyFileSpec(
        size=size, avg_dependencies=3.0, redundancy=0.5,
        history_window=300, locality_scale=100.0, seed=seed))


_GENERATORS: Dict[str, Callable[[int, int], bytes]] = {
    "file1": _file1,
    "file2": _file2,
    "ebook": lambda size, seed: generate_ebook(size, seed),
    "video": lambda size, seed: generate_video(size, seed),
    "webpages": lambda size, seed: generate_webpage_session(size, seed),
    "random": _random_file,
    "longhaul": _longhaul,
}

_DEFAULT_SIZES: Dict[str, int] = {
    "file1": EVAL_FILE_SIZE,
    "file2": EVAL_FILE_SIZE,
    "ebook": PAPER_EBOOK_SIZE,
    "video": 1024 * 1024,
    "webpages": 1024 * 1024,
    "random": EVAL_FILE_SIZE,
    "longhaul": EVAL_FILE_SIZE,
}

_cache: Dict[tuple, bytes] = {}


def corpus_names() -> list:
    return sorted(_GENERATORS)


def corpus_object(name: str, size: int = 0, seed: int = 0) -> bytes:
    """Return the named corpus object (memoised; deterministic)."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown corpus object {name!r}; "
                         f"known: {corpus_names()}")
    if size <= 0:
        size = _DEFAULT_SIZES[name]
    key = (name, size, seed)
    if key not in _cache:
        # lint: disable=purity-global-mutation(pure memoisation: the bytes are a deterministic function of the key, so a worker-local copy is byte-identical to the parent's)
        _cache[key] = _GENERATORS[name](size, seed)
    return _cache[key]


def clear_corpus_cache() -> None:
    """Drop memoised objects (tests use this to bound memory)."""
    _cache.clear()
