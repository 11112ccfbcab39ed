"""Tests for the loss-rate estimator behind the adaptive policy."""

import pytest

from repro.core.policies.k_distance import (AdaptiveKDistancePolicy,
                                            LossRateEstimator)


def test_clean_stream_estimate_decays_to_zero():
    estimator = LossRateEstimator(alpha=0.1, initial=0.5)
    for seq in range(0, 100 * 1460, 1460):
        estimator.observe(("f",), seq)
    assert estimator.estimate < 0.01
    assert estimator.retransmissions == 0


def test_retransmissions_raise_estimate():
    estimator = LossRateEstimator(alpha=0.2)
    estimator.observe(("f",), 0)
    estimator.observe(("f",), 1460)
    assert estimator.observe(("f",), 0) is True
    assert estimator.estimate > 0.1


def test_equal_seq_counts_as_retransmission():
    estimator = LossRateEstimator(alpha=0.2)
    estimator.observe(("f",), 100)
    assert estimator.observe(("f",), 100) is True


def test_flows_independent():
    estimator = LossRateEstimator()
    estimator.observe(("a",), 99999)
    assert estimator.observe(("b",), 0) is False


def test_non_tcp_ignored():
    estimator = LossRateEstimator()
    assert estimator.observe(("f",), None) is False
    assert estimator.observations == 0


def test_recommended_k_tracks_estimate():
    estimator = LossRateEstimator(initial=0.1)
    assert estimator.recommended_k(target=0.5) == 5
    estimator.estimate = 0.01
    assert estimator.recommended_k(target=0.5) == 50
    estimator.estimate = 0.0
    assert estimator.recommended_k(k_max=64) == 64
    estimator.estimate = 0.9
    assert estimator.recommended_k(k_min=2) == 2


def test_invalid_alpha():
    with pytest.raises(ValueError):
        LossRateEstimator(alpha=0.0)


def test_policy_reexported():
    assert AdaptiveKDistancePolicy.name == "adaptive_k"
