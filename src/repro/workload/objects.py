"""Synthetic web objects for the Table I redundancy baseline.

Table I reports the intrinsic redundancy byte caching finds in three
object classes as the cache window grows (k = 10/100/1000 packets):

* ebook — plain text: 0.3 % to ~1 %;
* video — already-compressed media: ~0.009 % to 1 %;
* web page — template-heavy browsing session: 19–42 % up to 26–52 %.

The generators below produce deterministic objects whose *redundancy
profile* matches those shapes; they stand in for the paper's real
objects, which we do not have (see DESIGN.md substitution table).
"""

from __future__ import annotations

import random
from typing import List

_WORD_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _vocabulary(rng: random.Random, n_words: int = 4096) -> List[bytes]:
    words = []
    for _ in range(n_words):
        length = rng.randint(3, 10)
        words.append("".join(rng.choice(_WORD_ALPHABET)
                             for _ in range(length)).encode("ascii"))
    return words


def generate_ebook(size: int, seed: int = 0,
                   boilerplate_rate: float = 0.012) -> bytes:
    """Plain-text ebook with sparse repeated boilerplate.

    Body text is drawn from a large vocabulary (word-level novelty keeps
    window-level redundancy near zero) with occasional repeated chapter
    headers / licence boilerplate, giving the sub-1 % redundancy of
    Table I's ebook column.
    """
    rng = random.Random(seed)
    vocabulary = _vocabulary(rng)
    boilerplate = [
        b"\n\n*** CHAPTER %d: of the many things that came to pass ***\n\n",
        b"\n\nThis text is distributed in the hope that it will be useful,"
        b" but WITHOUT ANY WARRANTY; reproduced with permission.\n\n",
    ]
    out = bytearray()
    chapter = 0
    while len(out) < size:
        if rng.random() < boilerplate_rate:
            chapter += 1
            template = boilerplate[rng.randrange(len(boilerplate))]
            out += (template % chapter) if b"%d" in template else template
            continue
        sentence_len = rng.randint(6, 16)
        words = [vocabulary[rng.randrange(len(vocabulary))]
                 for _ in range(sentence_len)]
        out += b" ".join(words) + b". "
        if rng.random() < 0.12:
            out += b"\n"
    return bytes(out[:size])


def generate_video(size: int, seed: int = 0,
                   atom_interval: int = 64 * 1024,
                   atom_size: int = 720) -> bytes:
    """Compressed-media object: random bytes plus container atoms.

    Compressed video payloads are statistically random; the only
    repetition is container framing (recurring stream headers), spaced
    far enough apart that a 10-packet cache window sees none of it
    while a 1000-packet window recovers ~1 % — Table I's video column
    (0.009 %–1 %).
    """
    rng = random.Random(seed)
    atom = b"\x00\x00\x01\xB3moov" + rng.randbytes(max(0, atom_size - 8))
    out = bytearray()
    while len(out) < size:
        out += atom
        out += rng.randbytes(min(atom_interval, size - len(out)))
    return bytes(out[:size])


def generate_webpage_session(size: int, seed: int = 0,
                             page_size: int = 8 * 1024,
                             template_fraction: float = 0.38,
                             shared_asset_fraction: float = 0.12) -> bytes:
    """A browsing session: pages of one site sharing template markup.

    Every page interleaves shared template fragments (header, nav,
    footer, inline CSS/JS — ``template_fraction`` of each page) with
    unique article text.  Short cache windows already capture the
    within-site template reuse (Table I: 19–42 % at k=10) and longer
    windows capture repeated asset references across the whole session
    (26–52 % at k=1000).
    """
    rng = random.Random(seed)
    vocabulary = _vocabulary(rng, 2048)

    def html_text(n_bytes: int) -> bytes:
        parts: List[bytes] = []
        total = 0
        while total < n_bytes:
            word = vocabulary[rng.randrange(len(vocabulary))]
            parts.append(word)
            total += len(word) + 1
        return b" ".join(parts)[:n_bytes]

    # Site-wide template fragments, reused verbatim on every page.
    header = b"<html><head><style>" + rng.randbytes(1024) + b"</style></head>"
    nav = b"<nav>" + html_text(int(page_size * template_fraction * 0.35)) + b"</nav>"
    footer = b"<footer>" + html_text(int(page_size * template_fraction * 0.25)) + b"</footer></html>"
    script = b"<script>" + rng.randbytes(int(page_size * template_fraction * 0.2)) + b"</script>"
    shared_assets = [rng.randbytes(int(page_size * shared_asset_fraction))
                     for _ in range(6)]

    out = bytearray()
    while len(out) < size:
        unique_len = max(0, page_size - len(header) - len(nav)
                         - len(footer) - len(script))
        body = html_text(unique_len)
        page = bytearray()
        page += header + nav
        page += b"<article>" + body + b"</article>"
        if rng.random() < 0.7:
            page += shared_assets[rng.randrange(len(shared_assets))]
        page += script + footer
        out += page
    return bytes(out[:size])
