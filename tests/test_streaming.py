"""Tests for the UDP streaming experiments (§V-C)."""

import pytest

from repro.chaos import canonical_campaign
from repro.chaos.runner import arm_campaign
from repro.experiments.streaming import (StreamingConfig, build_streaming,
                                         make_frames, run_streaming)


def config(**kwargs) -> StreamingConfig:
    defaults = dict(frame_count=150, seed=11)
    defaults.update(kwargs)
    return StreamingConfig(**defaults)


class TestFrameGenerator:
    def test_counts_and_sizes(self):
        frames = make_frames(config())
        assert len(frames) == 150
        assert all(len(frame) == 1200 for frame in frames)

    def test_deterministic(self):
        assert make_frames(config()) == make_frames(config())

    def test_overlap_present(self):
        frames = make_frames(config())
        # Each frame embeds the previous frame's tail (at a different
        # offset — which is exactly what content-defined fingerprints
        # tolerate and fixed-offset comparison would miss).
        assert frames[1][-400:] in frames[2]


class TestCleanChannel:
    def test_all_frames_delivered_no_dre(self):
        result = run_streaming(config(policy=None))
        assert result.frames_delivered == result.frames_sent

    def test_k_distance_compresses_and_delivers(self):
        raw = run_streaming(config(policy=None))
        dre = run_streaming(config(policy="k_distance", k=8))
        assert dre.frames_delivered == dre.frames_sent
        assert dre.bytes_on_link < 0.8 * raw.bytes_on_link

    def test_larger_k_compresses_more(self):
        k4 = run_streaming(config(policy="k_distance", k=4))
        k32 = run_streaming(config(policy="k_distance", k=32))
        assert k32.bytes_on_link < k4.bytes_on_link


class TestLossyChannel:
    def test_loss_costs_frames_without_retransmission(self):
        result = run_streaming(config(policy=None, loss_rate=0.05))
        assert result.frames_delivered < result.frames_sent
        assert result.channel_lost > 0

    def test_dependency_amplification_grows_with_k(self):
        """§V-C's trade in pure form: larger k → more undecodable
        frames per channel loss (no retransmissions to repair them)."""
        k4 = run_streaming(config(policy="k_distance", k=4,
                                  loss_rate=0.05))
        k32 = run_streaming(config(policy="k_distance", k=32,
                                   loss_rate=0.05))
        assert k32.undecodable > k4.undecodable
        assert k32.frames_sent == k4.frames_sent
        assert k32.frames_delivered < k4.frames_delivered

    def test_k_bounds_damage(self):
        """A single loss costs at most ~k frames."""
        result = run_streaming(config(policy="k_distance", k=4,
                                      loss_rate=0.02))
        assert result.undecodable <= result.channel_lost * 4

    def test_naive_policy_on_udp_also_works_but_amplifies(self):
        """Without references, a loss can poison everything after it
        (until the content chain naturally breaks)."""
        naive = run_streaming(config(policy="naive", loss_rate=0.02))
        kdist = run_streaming(config(policy="k_distance", k=8,
                                     loss_rate=0.02))
        assert naive.undecodable >= kdist.undecodable


class TestFlakyBackhaul:
    """The ``flaky-backhaul`` campaign at smoke scale on the streaming
    path: Gilbert-Elliott bursts on the lossy segment from 0.4 to 2.0 s,
    inside the 2.4 s stream of 1600 frames."""

    @staticmethod
    def stream(k):
        cfg = config(policy="k_distance", k=k, frame_count=1600)
        path = build_streaming(cfg)
        arm_campaign(canonical_campaign("flaky-backhaul"), path, cfg.seed)
        return cfg, path, run_streaming(cfg, path)

    def test_bursts_cost_at_most_k_frames_per_loss_and_never_a_wrong_one(self):
        undecodable = {}
        for k in (4, 8):
            cfg, path, result = self.stream(k)
            frames = make_frames(cfg)
            for frame in result.delivered:
                assert frame == frames[int.from_bytes(frame[32:36], "big")]
            lost = path.bottleneck_forward.stats.packets_lost
            assert lost > 0
            assert result.undecodable <= k * lost
            undecodable[k] = result.undecodable
        assert undecodable[4] < undecodable[8]


#: Exact digits of ``config(policy=, k=, loss_rate=)``: (delivered,
#: bytes on link, undecodable, channel lost).  A change to how the path
#: is wired must not move any of them.
GOLDEN = {
    (None, 8, 0.05): (143, 184_200, 0, 7),
    ("k_distance", 4, 0.05): (134, 116_964, 9, 7),
    ("k_distance", 32, 0.05): (86, 97_065, 57, 7),
    ("naive", 8, 0.02): (4, 94_653, 143, 3),
}


@pytest.mark.parametrize("policy,k,loss_rate", list(GOLDEN))
def test_stream_digits_match_golden(policy, k, loss_rate):
    result = run_streaming(config(policy=policy, k=k, loss_rate=loss_rate))
    assert (result.frames_delivered, result.bytes_on_link,
            result.undecodable, result.channel_lost) == GOLDEN[
                policy, k, loss_rate]
