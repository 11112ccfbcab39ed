"""Unit tests for Reno congestion control."""

from repro.net.tcp.congestion import RenoCongestionControl

MSS = 1460


def make():
    return RenoCongestionControl(MSS)


def test_initial_window():
    cc = make()
    assert cc.window() == 2 * MSS
    assert cc.in_slow_start


def test_slow_start_doubles_per_window():
    cc = make()
    # One full window of ACKs roughly doubles cwnd.
    acks = cc.cwnd // MSS
    for _ in range(acks):
        cc.on_new_ack(MSS, snd_una=0)
    assert cc.cwnd == 4 * MSS


def test_congestion_avoidance_linear():
    cc = make()
    cc.ssthresh = 4 * MSS
    cc.cwnd = 4 * MSS
    start = cc.cwnd
    # A full window of ACKs adds about one MSS.
    for _ in range(4):
        cc.on_new_ack(MSS, snd_una=0)
    assert start < cc.cwnd <= start + MSS + 4


def test_fast_retransmit_halves():
    cc = make()
    cc.cwnd = 20 * MSS
    cc.ssthresh = 1 << 30
    cc.on_fast_retransmit(flight_size=20 * MSS, snd_nxt=100000)
    assert cc.ssthresh == 10 * MSS
    assert cc.cwnd == 10 * MSS + 3 * MSS
    assert cc.in_fast_recovery


def test_dup_ack_inflation():
    cc = make()
    cc.on_fast_retransmit(flight_size=20 * MSS, snd_nxt=100000)
    before = cc.cwnd
    cc.on_dup_ack_in_recovery()
    assert cc.cwnd == before + MSS


def test_full_ack_deflates_and_exits():
    cc = make()
    cc.on_fast_retransmit(flight_size=20 * MSS, snd_nxt=100000)
    cc.on_new_ack(100000, snd_una=100001)
    assert not cc.in_fast_recovery
    assert cc.cwnd == cc.ssthresh


def test_partial_ack_stays_in_recovery():
    cc = make()
    cc.on_fast_retransmit(flight_size=20 * MSS, snd_nxt=100000)
    cc.on_new_ack(MSS, snd_una=50000)
    assert cc.in_fast_recovery


def test_timeout_collapses_to_one_segment():
    cc = make()
    cc.cwnd = 30 * MSS
    cc.on_timeout(flight_size=30 * MSS)
    assert cc.cwnd == MSS
    assert cc.ssthresh == 15 * MSS
    assert not cc.in_fast_recovery
    assert cc.in_slow_start


def test_ssthresh_floor_two_mss():
    cc = make()
    cc.on_timeout(flight_size=MSS)
    assert cc.ssthresh == 2 * MSS


def test_stats_counters():
    cc = make()
    cc.on_new_ack(MSS, 0)
    cc.on_fast_retransmit(10 * MSS, 0)
    cc.on_timeout(10 * MSS)
    assert cc.stats.slow_start_acks == 1
    assert cc.stats.fast_retransmits == 1
    assert cc.stats.timeouts == 1


def test_invalid_mss():
    import pytest

    with pytest.raises(ValueError):
        RenoCongestionControl(0)
