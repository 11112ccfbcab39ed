"""Tests for the synthetic workload generators."""

import pytest

from repro.core.cache import ByteCache
from repro.core.encoder import ByteCachingEncoder
from repro.core.fingerprint import FingerprintScheme
from repro.core.policies.base import PacketMeta
from repro.core.policies.naive import NaivePolicy
from repro.experiments.scenarios import offline_compression_ratio
from repro.workload import (DEFAULT_MSS, DependencyFileSpec,
                            clear_corpus_cache, corpus_names, corpus_object,
                            generate_dependency_file, generate_ebook,
                            generate_video, generate_webpage_session)


def measure_dependencies(file_bytes, mss=DEFAULT_MSS):
    """The realised average dependency degree of a file.

    Runs the file's blocks through a fresh encoder (naive policy, no
    network) and averages the number of distinct prior packets each
    encoded packet references: the statistic the paper reports for
    File 1 (about 4) and File 2 (about 7).
    """
    encoder = ByteCachingEncoder(FingerprintScheme(), ByteCache(),
                                 NaivePolicy())
    degrees = []
    for index in range(0, len(file_bytes), mss):
        meta = PacketMeta(packet_id=index // mss, flow=("m", 0, "m", 1),
                          tcp_seq=index, counter=index // mss)
        result = encoder.encode(file_bytes[index:index + mss], meta)
        if result.encoded:
            degrees.append(len(result.dependencies))
    return sum(degrees) / len(degrees) if degrees else 0.0


class TestDependencyFiles:
    def test_exact_size(self):
        spec = DependencyFileSpec(size=100_000, seed=1)
        assert len(generate_dependency_file(spec)) == 100_000

    def test_deterministic(self):
        spec = DependencyFileSpec(size=50_000, seed=7)
        assert generate_dependency_file(spec) == generate_dependency_file(spec)

    def test_seed_changes_content(self):
        a = generate_dependency_file(DependencyFileSpec(size=50_000, seed=1))
        b = generate_dependency_file(DependencyFileSpec(size=50_000, seed=2))
        assert a != b

    def test_dependency_degree_tracks_parameter(self):
        low = generate_dependency_file(DependencyFileSpec(
            size=400_000, avg_dependencies=3.3, seed=3))
        high = generate_dependency_file(DependencyFileSpec(
            size=400_000, avg_dependencies=6.3, seed=3))
        low_deg = measure_dependencies(low)
        high_deg = measure_dependencies(high)
        assert 2.0 < low_deg < 5.5
        assert high_deg > low_deg + 1.0

    def test_redundancy_fraction_controls_compression(self):
        sparse = generate_dependency_file(DependencyFileSpec(
            size=300_000, redundancy=0.2, seed=4))
        dense = generate_dependency_file(DependencyFileSpec(
            size=300_000, redundancy=0.6, seed=4))
        assert offline_compression_ratio(dense) \
            < offline_compression_ratio(sparse)

    def test_zero_redundancy_incompressible(self):
        data = generate_dependency_file(DependencyFileSpec(
            size=200_000, redundancy=0.0, seed=5))
        assert offline_compression_ratio(data) > 0.99

    @pytest.mark.parametrize("kwargs", [
        {"size": 0}, {"size": 1000, "redundancy": 0.99},
        {"size": 1000, "redundancy": -0.1},
    ])
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            generate_dependency_file(DependencyFileSpec(**kwargs))

    def test_locality_concentrates_sources(self):
        near = generate_dependency_file(DependencyFileSpec(
            size=300_000, locality_scale=2.0, seed=6))
        # With tight locality, a small cache window already captures
        # most of the redundancy.
        small_window = offline_compression_ratio(near, cache_packets=8)
        assert small_window < 0.85


class TestObjectGenerators:
    def test_ebook_is_mostly_text(self):
        data = generate_ebook(100_000, seed=1)
        printable = sum(1 for b in data if 32 <= b < 127 or b in (10, 13))
        assert printable / len(data) > 0.95
        assert len(data) == 100_000

    def test_ebook_low_redundancy(self):
        data = generate_ebook(300_000, seed=1)
        ratio = offline_compression_ratio(data, cache_packets=1000)
        assert 1 - ratio < 0.05

    def test_video_nearly_incompressible_in_small_window(self):
        data = generate_video(400_000, seed=1)
        assert 1 - offline_compression_ratio(data, cache_packets=10) < 0.005

    def test_video_atoms_visible_in_large_window(self):
        data = generate_video(800_000, seed=1)
        small = 1 - offline_compression_ratio(data, cache_packets=10)
        large = 1 - offline_compression_ratio(data, cache_packets=1000)
        assert large > small

    def test_webpages_highly_redundant(self):
        data = generate_webpage_session(300_000, seed=1)
        savings = 1 - offline_compression_ratio(data, cache_packets=100)
        assert savings > 0.25

    def test_generators_deterministic(self):
        assert generate_ebook(50_000, 9) == generate_ebook(50_000, 9)
        assert generate_video(50_000, 9) == generate_video(50_000, 9)
        assert generate_webpage_session(50_000, 9) == \
            generate_webpage_session(50_000, 9)


class TestCorpus:
    def test_names(self):
        names = corpus_names()
        for expected in ("file1", "file2", "ebook", "video", "webpages",
                         "random"):
            assert expected in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            corpus_object("nope")

    def test_memoisation(self):
        clear_corpus_cache()
        a = corpus_object("file1", size=50_000, seed=1)
        b = corpus_object("file1", size=50_000, seed=1)
        assert a is b
        clear_corpus_cache()
        c = corpus_object("file1", size=50_000, seed=1)
        assert a == c and a is not c

    def test_default_sizes(self):
        clear_corpus_cache()
        assert len(corpus_object("ebook", seed=1)) == 587_567
        clear_corpus_cache()

    def test_file1_file2_dependency_profiles(self):
        f1 = corpus_object("file1", size=300_000, seed=3)
        f2 = corpus_object("file2", size=300_000, seed=3)
        assert measure_dependencies(f2) > measure_dependencies(f1)
