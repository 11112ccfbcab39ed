"""The no-DRE baseline against its closed form (ROADMAP item 3).

Every ratio in Figs. 10-13 is divided by a plain TCP download on the
same loss realisation, so that download has to be what TCP theory says
it is: bytes at the shaper-capped, loss-limited rate, plus one
``tcp_min_rto`` per timeout -- and few timeouts, because a SACK sender
recovers a lost retransmission without its timer.
"""

import statistics
from math import inf

import pytest

from repro import ExperimentConfig, run_transfer
from repro.verify.tcp_model import (expected_download_s, loss_limited_rate,
                                    round_trip_s)

LINK_SEEDS = range(12)


def test_loss_limited_rate_is_the_square_root_law():
    # sqrt(3 / (2 * 0.015)) == 10 windows of one MSS per RTT.
    assert loss_limited_rate(1460, 0.1, 0.015) == pytest.approx(146_000)
    assert loss_limited_rate(1460, 0.1, 0.0) == inf


def test_round_trip_of_the_default_testbed():
    assert round_trip_s(ExperimentConfig()) == pytest.approx(0.0085)


@pytest.fixture(scope="module")
def baseline_runs():
    return {loss: [run_transfer(ExperimentConfig(policy=None, loss_rate=loss,
                                                 seed=seed))
                   for seed in LINK_SEEDS]
            for loss in (0.01, 0.05, 0.10)}


@pytest.mark.parametrize("loss", [0.01, 0.05, 0.10])
def test_median_download_within_20_percent_of_closed_form(baseline_runs, loss):
    runs = baseline_runs[loss]
    config = ExperimentConfig(policy=None, loss_rate=loss)
    size = runs[0].outcome.expected_size
    timeouts = statistics.mean(run.server_timeouts for run in runs)
    median = statistics.median(run.download_time for run in runs)
    assert median == pytest.approx(
        expected_download_s(config, size, timeouts), rel=0.20)


def test_ten_percent_loss_costs_at_most_one_timeout_a_transfer(baseline_runs):
    # 4.0 before lost-retransmission detection: four RTOs in five were
    # a retransmission that had been lost as well.
    runs = baseline_runs[0.10]
    assert statistics.mean(run.server_timeouts for run in runs) <= 1.0
    assert sum(run.server_lost_retransmits for run in runs) > 0
