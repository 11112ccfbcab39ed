"""End-to-end tests of the experiment harness (§III-C testbed)."""

import pytest

from repro.experiments import (ExperimentConfig, SweepSpec, run_sweep,
                               run_transfer)


def small_config(**kwargs):
    defaults = dict(corpus="file1", file_size=60 * 1460, corpus_seed=3,
                    seed=5, time_limit=300.0)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestBaseline:
    def test_clean_baseline_completes(self):
        result = run_transfer(small_config(policy=None))
        assert result.completed
        assert not result.dre_enabled
        assert result.download_time is not None
        assert result.perceived_loss_rate == 0.0

    def test_baseline_under_loss_completes(self):
        result = run_transfer(small_config(policy=None, loss_rate=0.05))
        assert result.completed
        assert result.server_retransmissions > 0

    def test_content_verification(self):
        result = run_transfer(small_config(policy=None, verify_content=True))
        assert result.outcome.content_ok is True

    def test_throughput_bounded_by_shaper(self):
        """A 60-segment file at 1 MB/s cannot finish faster than its
        serialisation time."""
        result = run_transfer(small_config(policy=None))
        wire_time = result.forward_bytes_on_link / 1_000_000.0
        assert result.download_time >= wire_time * 0.95


class TestDreTransfers:
    def test_clean_dre_saves_bytes(self):
        (cell,) = run_sweep(SweepSpec(base=small_config(policy="cache_flush"),
                                      paired_baseline=True))
        dre, baseline = cell.result, cell.baseline
        assert dre.completed and baseline.completed
        assert dre.forward_bytes_on_link < 0.75 * baseline.forward_bytes_on_link
        assert dre.download_time < baseline.download_time

    def test_dre_content_correct_under_loss(self):
        result = run_transfer(small_config(policy="cache_flush",
                                           loss_rate=0.03,
                                           verify_content=True))
        assert result.completed
        assert result.outcome.content_ok is True

    def test_naive_stalls_under_loss(self):
        """§IV: the naive scheme livelocks after the first loss."""
        result = run_transfer(small_config(policy="naive", loss_rate=0.08))
        assert result.stalled
        assert result.fraction_retrieved < 1.0

    def test_naive_clean_channel_works(self):
        result = run_transfer(small_config(policy="naive",
                                           verify_content=True))
        assert result.completed and result.outcome.content_ok

    @pytest.mark.parametrize("policy,kwargs", [
        ("cache_flush", {}),
        ("tcp_seq", {}),
        ("k_distance", {"k": 8}),
        ("k_distance", {"k": 2}),
        ("ack_gated", {}),
        ("k_distance", {"k": 50}),
        ("adaptive_k", {}),
    ])
    def test_robust_policies_survive_loss(self, policy, kwargs):
        result = run_transfer(small_config(
            policy=policy, policy_kwargs=kwargs, loss_rate=0.03,
            verify_content=True))
        assert result.completed, (policy, result.outcome.close_reason)
        assert result.outcome.content_ok is True

    def test_perceived_loss_amplification(self):
        """§VII: dependencies make perceived loss exceed channel loss."""
        result = run_transfer(small_config(policy="tcp_seq", loss_rate=0.05))
        assert result.perceived_loss_rate > 0.05

    def test_corruption_survivable_with_cache_flush(self):
        result = run_transfer(small_config(policy="cache_flush",
                                           corrupt_rate=0.02,
                                           verify_content=True))
        assert result.completed and result.outcome.content_ok

    def test_reordering_survivable_with_cache_flush(self):
        result = run_transfer(small_config(policy="cache_flush",
                                           reorder_rate=0.05,
                                           verify_content=True))
        assert result.completed and result.outcome.content_ok


class TestHarness:
    def test_with_updates_copies(self):
        config = small_config()
        updated = config.with_updates(loss_rate=0.07)
        assert updated.loss_rate == 0.07
        assert config.loss_rate == 0.0
        assert updated is not config

    def test_determinism_same_seed(self):
        a = run_transfer(small_config(policy="cache_flush", loss_rate=0.02))
        b = run_transfer(small_config(policy="cache_flush", loss_rate=0.02))
        assert a.download_time == b.download_time
        assert a.forward_bytes_on_link == b.forward_bytes_on_link

    def test_different_seed_different_run(self):
        a = run_transfer(small_config(policy="cache_flush", loss_rate=0.05,
                                      seed=1))
        b = run_transfer(small_config(policy="cache_flush", loss_rate=0.05,
                                      seed=2))
        assert (a.download_time != b.download_time
                or a.forward_bytes_on_link != b.forward_bytes_on_link)

    def test_cache_window_limit_applies(self):
        result = run_transfer(small_config(policy="cache_flush",
                                           cache_max_packets=4))
        assert result.completed
        # With a 4-packet cache the long-range redundancy is invisible:
        # savings shrink relative to the unlimited cache.
        unlimited = run_transfer(small_config(policy="cache_flush"))
        assert result.forward_bytes_on_link > unlimited.forward_bytes_on_link
