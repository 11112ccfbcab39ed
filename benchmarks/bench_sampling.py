"""Ablation — anchor selection rule: value sampling vs winnowing.

§III-A selects fingerprints whose last k bits are zero (value
sampling).  Winnowing guarantees bounded anchor gaps at comparable
density; this bench measures the resulting compression on the
evaluation corpus, offline (no network), at matched expected density.
"""

from conftest import print_report
from winnowing import WinnowingScheme

from repro.experiments.scenarios import offline_compression_ratio
from repro.core.fingerprint import FingerprintScheme
from repro.metrics import format_table
from repro.workload.corpus import corpus_object


def measure():
    rows = []
    for corpus in ("file1", "webpages", "ebook"):
        data = corpus_object(corpus, size=200 * 1460, seed=3)
        cells = [corpus]
        for scheme in (FingerprintScheme(), WinnowingScheme()):
            ratio = offline_compression_ratio(data, scheme=scheme)
            cells.append(f"{(1 - ratio) * 100:.1f}%")
        rows.append(cells)
    return rows


def test_sampling_ablation(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_report("Ablation — anchor selection rule", format_table(
        "offline byte savings at matched anchor density (w=16, 2^-4)",
        ["corpus", "value sampling (§III-A)", "winnowing"], rows))

    by_corpus = {row[0]: row for row in rows}
    # Both rules find the bulk of the redundancy on redundant corpora.
    for corpus in ("file1", "webpages"):
        value = float(by_corpus[corpus][1].rstrip("%"))
        winnow = float(by_corpus[corpus][2].rstrip("%"))
        assert value > 20.0
        assert winnow > 20.0
        assert abs(value - winnow) < 15.0
