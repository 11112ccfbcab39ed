"""Unit tests for RTO estimation."""

import pytest

from repro.net.tcp.timer import RtoEstimator


def test_initial_rto():
    estimator = RtoEstimator()
    assert estimator.rto == 1.0


def test_first_sample_initialises_srtt():
    estimator = RtoEstimator(min_rto=0.0)
    estimator.sample(0.1)
    assert estimator.srtt == pytest.approx(0.1)
    assert estimator.rttvar == pytest.approx(0.05)
    assert estimator.rto == pytest.approx(0.1 + 4 * 0.05)


def test_smoothing_converges():
    estimator = RtoEstimator(min_rto=0.0)
    for _ in range(100):
        estimator.sample(0.2)
    assert estimator.srtt == pytest.approx(0.2, rel=0.01)
    assert estimator.rttvar == pytest.approx(0.0, abs=0.01)


def test_min_rto_clamp():
    estimator = RtoEstimator(min_rto=0.2)
    for _ in range(50):
        estimator.sample(0.001)
    assert estimator.rto == 0.2


def test_max_rto_clamp():
    estimator = RtoEstimator(max_rto=8.0)
    estimator.sample(10.0)
    assert estimator.rto == 8.0


def test_backoff_doubles():
    estimator = RtoEstimator(min_rto=0.2, max_rto=60.0)
    estimator.sample(0.5)
    base = estimator.rto
    estimator.back_off()
    assert estimator.rto == pytest.approx(2 * base)
    estimator.back_off()
    assert estimator.rto == pytest.approx(4 * base)


def test_backoff_capped_at_max():
    estimator = RtoEstimator(max_rto=4.0)
    estimator.sample(1.0)
    for _ in range(20):
        estimator.back_off()
    assert estimator.rto == 4.0
    # Backing off stopped at the cap: the 3 s RTO doubled once.
    estimator.max_rto = 100.0
    assert estimator.rto == pytest.approx(6.0)


def test_sample_resets_backoff():
    estimator = RtoEstimator(min_rto=0.0)
    estimator.sample(0.5)
    estimator.back_off()
    estimator.back_off()
    estimator.sample(0.5)
    assert estimator.rto == pytest.approx(estimator.srtt
                                          + 4 * estimator.rttvar)


def test_reset_backoff():
    estimator = RtoEstimator()
    before = estimator.rto
    estimator.back_off()
    assert estimator.rto == 2 * before
    estimator.reset_backoff()
    assert estimator.rto == before


def test_negative_sample_rejected():
    with pytest.raises(ValueError):
        RtoEstimator().sample(-0.1)


def test_variance_tracks_jitter():
    smooth = RtoEstimator(min_rto=0.0)
    jittery = RtoEstimator(min_rto=0.0)
    for i in range(50):
        smooth.sample(0.2)
        jittery.sample(0.1 if i % 2 else 0.3)
    assert jittery.rto > smooth.rto
