"""Tests for inter-flow redundancy and cross-connection poisoning."""

from repro.experiments import ExperimentConfig
from repro.experiments.multiflow import (run_concurrent_fetches,
                                         run_sequential_fetches)


def config(**kwargs) -> ExperimentConfig:
    defaults = dict(corpus="file1", file_size=60 * 1460, corpus_seed=3,
                    policy="cache_flush", seed=5, time_limit=300.0)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestInterFlowRedundancy:
    def test_second_fetch_rides_the_cache(self):
        """§I: inter-flow redundancy — refetching the same object over a
        new connection costs a fraction of the first transfer."""
        result = run_sequential_fetches(config(), n_fetches=2)
        assert result.all_completed
        first, second = result.per_fetch_link_bytes
        assert second < 0.25 * first

    def test_distinct_objects_no_free_lunch(self):
        result = run_sequential_fetches(config(), n_fetches=2,
                                        same_object=False)
        assert result.all_completed
        first, second = result.per_fetch_link_bytes
        assert second > 0.5 * first

    def test_second_fetch_content_correct(self):
        result = run_sequential_fetches(config(), n_fetches=2)
        assert all(outcome.content_ok for outcome in result.outcomes)

    def test_tcp_seq_cross_flow_compression(self):
        """The default TCP-seq policy allows cross-flow references."""
        result = run_sequential_fetches(config(policy="tcp_seq"),
                                        n_fetches=2)
        assert result.all_completed
        first, second = result.per_fetch_link_bytes
        assert second < 0.25 * first

    def test_inter_flow_redundancy_survives_loss(self):
        result = run_sequential_fetches(config(loss_rate=0.02),
                                        n_fetches=2)
        assert result.all_completed
        assert all(outcome.content_ok for outcome in result.outcomes)


class TestConcurrentFlows:
    def test_concurrent_fetches_complete_and_share(self):
        result = run_concurrent_fetches(config(), n_clients=3)
        assert len(result.outcomes) == 3
        assert result.all_completed
        assert all(outcome.content_ok for outcome in result.outcomes)
        # Three copies over the link would cost ~3 file sizes + headers;
        # sharing must bring it well under two.
        file_size = 60 * 1460
        assert result.bytes_on_link < 2.0 * file_size

    def test_concurrent_under_loss_with_cache_flush(self):
        result = run_concurrent_fetches(config(loss_rate=0.02),
                                        n_clients=2)
        assert result.all_completed


class TestCrossConnectionPoisoning:
    def test_naive_poisoning_affects_subsequent_connection(self):
        """§IV-C: after a naive-policy stall, the *next* connection
        through the same gateways inherits the desynchronised caches."""
        result = run_sequential_fetches(
            config(policy="naive", loss_rate=0.05, time_limit=400.0),
            n_fetches=2)
        # The first fetch stalls (naive + loss), and the second fares no
        # better: its content is fully redundant against the poisoned
        # encoder cache, so its packets reference undelivered state.
        assert not result.outcomes[0].completed
        assert len(result.outcomes) >= 2
        assert not result.outcomes[1].completed

    def test_cache_flush_recovers_across_connections(self):
        result = run_sequential_fetches(
            config(policy="cache_flush", loss_rate=0.05), n_fetches=2)
        assert result.all_completed
