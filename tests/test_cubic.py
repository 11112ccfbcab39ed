"""Tests for CUBIC congestion control and the reno/cubic ablation."""

import pytest

from repro.net.tcp import CubicCongestionControl, make_congestion_control
from repro.net.tcp.congestion import RenoCongestionControl

MSS = 1460


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make(clock=None):
    return CubicCongestionControl(MSS, clock=clock or FakeClock())


class TestFactory:
    def test_reno(self):
        cc = make_congestion_control("reno", MSS)
        assert type(cc) is RenoCongestionControl

    def test_cubic(self):
        cc = make_congestion_control("cubic", MSS, clock=lambda: 0.0)
        assert isinstance(cc, CubicCongestionControl)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_congestion_control("vegas", MSS)


class TestCubicBehaviour:
    def test_slow_start_same_as_reno(self):
        cc = make()
        assert cc.in_slow_start
        before = cc.cwnd
        cc.on_new_ack(MSS, 0)
        assert cc.cwnd == before + MSS

    def test_multiplicative_decrease_is_beta(self):
        cc = make()
        cc.cwnd = 20 * MSS
        cc.ssthresh = 10 * MSS  # out of slow start
        cc.on_fast_retransmit(flight_size=20 * MSS, snd_nxt=0)
        assert cc.ssthresh == int(20 * MSS * 0.7)
        assert cc.in_fast_recovery

    def test_concave_recovery_towards_w_max(self):
        clock = FakeClock()
        cc = make(clock)
        cc.cwnd = 30 * MSS
        cc.ssthresh = MSS  # force CA
        cc.on_fast_retransmit(flight_size=30 * MSS, snd_nxt=100)
        cc.on_new_ack(0, snd_una=101)          # exit recovery (full ACK)
        assert not cc.in_fast_recovery
        start = cc.cwnd
        # Feed ACKs over simulated time: the window climbs back toward
        # W_max = 30 segments.
        grown = []
        for step in range(200):
            clock.now += 0.01
            cc.on_new_ack(MSS, snd_una=0)
            grown.append(cc.cwnd)
        assert grown[-1] > start
        assert grown[-1] >= int(0.85 * 30 * MSS)

    def test_convex_probing_beyond_w_max(self):
        clock = FakeClock()
        cc = make(clock)
        cc.cwnd = 10 * MSS
        cc.ssthresh = MSS
        cc.on_timeout(flight_size=10 * MSS)
        cc.cwnd = cc.ssthresh  # skip slow start for the test
        for _ in range(600):
            clock.now += 0.01
            cc.on_new_ack(MSS, snd_una=0)
        # Long after K the cubic term dominates and the window exceeds
        # the old W_max.
        assert cc.cwnd > 10 * MSS

    def test_timeout_collapses_window(self):
        cc = make()
        cc.cwnd = 16 * MSS
        cc.on_timeout(flight_size=16 * MSS)
        assert cc.cwnd == MSS
        assert cc.ssthresh == int(16 * MSS * 0.7)


class TestEndToEnd:
    def test_transfer_completes_with_cubic(self):
        from repro.experiments import ExperimentConfig, run_transfer

        result = run_transfer(ExperimentConfig(
            policy="cache_flush", file_size=60 * 1460, seed=5,
            tcp_congestion="cubic", verify_content=True))
        assert result.completed
        assert result.outcome.content_ok is True

    def test_cubic_survives_loss(self):
        from repro.experiments import ExperimentConfig, run_transfer

        result = run_transfer(ExperimentConfig(
            policy="cache_flush", file_size=60 * 1460, seed=5,
            loss_rate=0.05, tcp_congestion="cubic", verify_content=True))
        assert result.completed

    def test_unknown_congestion_rejected(self):
        from repro.experiments import ExperimentConfig, run_transfer

        with pytest.raises(ValueError):
            run_transfer(ExperimentConfig(policy=None, file_size=14600,
                                          tcp_congestion="vegas"))
