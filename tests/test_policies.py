"""Unit tests for every encoding/decoding policy."""

import random

import pytest

from repro.core import ByteCache, ByteCachingEncoder, FingerprintScheme
from repro.core.policies import (AckGatedDecoderPolicy, AckGatedPolicy,
                                 AdaptiveKDistancePolicy, CacheFlushPolicy,
                                 DecoderPolicy, ENCODER_POLICIES,
                                 KDistancePolicy, NaivePolicy, PacketMeta,
                                 TcpSeqPolicy, make_policy_pair)
from tests.reference_cache import CacheEntry

FLOW = ("10.0.2.1", 80, "10.0.1.1", 5000)


def meta(i, seq=None, counter=None):
    return PacketMeta(packet_id=i, flow=FLOW,
                      tcp_seq=seq, counter=counter if counter is not None else i)


def entry(seq=None, flow=FLOW, counter=0):
    return CacheEntry(fingerprint=1, store_id=1, offset=0, tcp_seq=seq,
                      flow=flow, packet_counter=counter)


class TestRegistry:
    def test_all_policies_constructible(self):
        for name in ENCODER_POLICIES:
            encoder_policy, decoder_policy = make_policy_pair(name)
            assert encoder_policy.name
            assert decoder_policy is not None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy_pair("bogus")

    def test_kwargs_forwarded(self):
        policy, _ = make_policy_pair("k_distance", k=5)
        assert policy.k == 5

    def test_decoder_kwargs_forwarded(self):
        encoder_policy, decoder_policy = make_policy_pair(
            "ack_gated", decoder_max_pending=7)
        assert decoder_policy.max_pending == 7
        assert encoder_policy.max_pending == 4096

    def test_paired_decoder_policies(self):
        """Only the ACK-gated scheme has a decoder half of its own."""
        for name in ENCODER_POLICIES:
            _, decoder_policy = make_policy_pair(name)
            if name == "ack_gated":
                assert isinstance(decoder_policy, AckGatedDecoderPolicy)
            else:
                assert type(decoder_policy) is DecoderPolicy


class TestNaive:
    def test_everything_permitted(self):
        policy = NaivePolicy()
        assert policy.may_encode(meta(1))
        assert policy.entry_eligible(entry(), meta(1))
        assert policy.should_cache_now(meta(1))
        assert policy.region_acceptable(1460, 1460, meta(1))


class TestCacheFlush:
    def test_increasing_sequence_no_flush(self):
        policy = CacheFlushPolicy()
        cache = ByteCache()
        cache.insert_packet(b"x" * 50, [(0, 7)])
        for seq in (0, 1460, 2920):
            policy.before_packet(meta(1, seq=seq), cache)
        assert cache.flushes == 0

    def test_decrease_triggers_flush(self):
        policy = CacheFlushPolicy()
        cache = ByteCache()
        policy.before_packet(meta(1, seq=0), cache)
        policy.before_packet(meta(2, seq=1460), cache)
        policy.before_packet(meta(3, seq=0), cache)     # retransmission
        assert cache.flushes == 1
        assert policy.flushes_triggered == 1

    def test_equal_sequence_triggers_flush(self):
        """A segment retransmitted twice in a row repeats the same seq."""
        policy = CacheFlushPolicy()
        cache = ByteCache()
        policy.before_packet(meta(1, seq=1460), cache)
        policy.before_packet(meta(2, seq=1460), cache)
        assert cache.flushes == 1

    def test_ascending_retransmission_burst_flushes_once(self):
        policy = CacheFlushPolicy()
        cache = ByteCache()
        for seq in (0, 1460, 2920, 4380, 5840):
            policy.before_packet(meta(1, seq=seq), cache)
        # Burst retransmitting holes 1460 and 2920 in ascending order.
        policy.before_packet(meta(2, seq=1460), cache)
        policy.before_packet(meta(3, seq=2920), cache)
        assert cache.flushes == 1

    def test_non_tcp_traffic_ignored(self):
        policy = CacheFlushPolicy()
        cache = ByteCache()
        policy.before_packet(PacketMeta(packet_id=1), cache)
        assert cache.flushes == 0

    def test_flows_tracked_independently(self):
        policy = CacheFlushPolicy()
        cache = ByteCache()
        other = ("other", 1, "flow", 2)
        policy.before_packet(meta(1, seq=5000), cache)
        policy.before_packet(PacketMeta(packet_id=2, flow=other, tcp_seq=0),
                             cache)
        assert cache.flushes == 0


class TestTcpSeq:
    def test_strictly_earlier_segment_eligible(self):
        policy = TcpSeqPolicy()
        assert policy.entry_eligible(entry(seq=0), meta(1, seq=1460))

    def test_same_or_later_segment_ineligible(self):
        """Fig. 7 line B.7: TCPseq_stored must be strictly lower."""
        policy = TcpSeqPolicy()
        assert not policy.entry_eligible(entry(seq=1460), meta(1, seq=1460))
        assert not policy.entry_eligible(entry(seq=2920), meta(1, seq=1460))

    def test_cross_flow_allowed_by_default(self):
        policy = TcpSeqPolicy()
        other = entry(seq=999999, flow=("x", 1, "y", 2))
        assert policy.entry_eligible(other, meta(1, seq=0))

    def test_retransmission_takes_no_cross_flow_source(self):
        """A first transmission may source another flow; a segment not
        above its flow's highest ``tcp_seq`` (a repeat included) may not,
        while its strictly earlier same-flow segments stay eligible."""
        policy = TcpSeqPolicy()
        cache = ByteCache()
        other = entry(seq=0, flow=("x", 1, "y", 2))
        for i, seq in enumerate((0, 1460, 2920)):
            policy.before_packet(meta(i, seq=seq), cache)
            assert policy.entry_eligible(other, meta(i, seq=seq))
        for i, seq in ((3, 2920), (4, 1460)):     # repeat, then a hole
            policy.before_packet(meta(i, seq=seq), cache)
            assert not policy.entry_eligible(other, meta(i, seq=seq))
            assert policy.entry_eligible(entry(seq=0), meta(i, seq=seq))
        policy.before_packet(meta(5, seq=4380), cache)
        assert policy.entry_eligible(other, meta(5, seq=4380))

    def test_non_tcp_never_encodes(self):
        policy = TcpSeqPolicy()
        assert not policy.entry_eligible(entry(seq=0), PacketMeta(packet_id=1))

    def test_entry_without_seq_ineligible(self):
        policy = TcpSeqPolicy()
        assert not policy.entry_eligible(entry(seq=None), meta(1, seq=1460))


class TestKDistance:
    def test_first_packet_is_reference(self):
        policy = KDistancePolicy(k=4)
        assert not policy.may_encode(meta(1, counter=0))

    def test_reference_every_k_packets(self):
        policy = KDistancePolicy(k=4)
        encodable = [policy.may_encode(meta(i, counter=i)) for i in range(9)]
        assert encodable == [False, True, True, True,
                             False, True, True, True, False]
        assert policy.references_sent == 3

    def test_eligibility_limited_to_reference_window(self):
        policy = KDistancePolicy(k=4)
        for i in range(5):
            policy.may_encode(meta(i, counter=i))  # reference at 0 and 4
        assert policy.entry_eligible(entry(counter=4), meta(5, counter=5))
        assert policy.entry_eligible(entry(counter=5), meta(6, counter=6))
        assert not policy.entry_eligible(entry(counter=3), meta(5, counter=5))

    def test_whole_payload_match_vetoed_in_counter_mode(self):
        policy = KDistancePolicy(k=4)
        assert not policy.region_acceptable(1460, 1460, meta(1))
        assert policy.region_acceptable(1459, 1460, meta(1))

    def test_whole_payload_match_allowed_in_stream_mode(self):
        policy = KDistancePolicy(k=4)
        assert policy.region_acceptable(1460, 1460, meta(1, seq=1460))

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KDistancePolicy(k=0)


class TestKDistanceStreamMode:
    """TCP traffic uses stream-position groups (§V-C + §VII)."""

    MSS = 1460

    def seq_meta(self, segment_index, packet_id=1):
        return meta(packet_id, seq=1 + segment_index * self.MSS,
                    counter=segment_index)

    def test_group_leaders_are_references(self):
        policy = KDistancePolicy(k=4, mss=self.MSS)
        encodable = [policy.may_encode(self.seq_meta(i)) for i in range(9)]
        assert encodable == [False, True, True, True,
                             False, True, True, True, False]

    def test_retransmitted_reference_stays_reference(self):
        policy = KDistancePolicy(k=4, mss=self.MSS)
        assert not policy.may_encode(self.seq_meta(0))
        for i in range(1, 4):
            policy.may_encode(self.seq_meta(i))
        # A later retransmission of segment 0 is still the group leader.
        assert not policy.may_encode(self.seq_meta(0))

    def test_eligibility_windowed_to_group(self):
        policy = KDistancePolicy(k=4, mss=self.MSS)
        for i in range(6):
            policy.may_encode(self.seq_meta(i))
        current = self.seq_meta(6)      # group of segments 4..7
        in_group = entry(seq=1 + 5 * self.MSS)
        previous_group = entry(seq=1 + 3 * self.MSS)
        assert policy.entry_eligible(in_group, current)
        assert not policy.entry_eligible(previous_group, current)

    def test_never_references_self_or_future(self):
        policy = KDistancePolicy(k=8, mss=self.MSS)
        current = self.seq_meta(2)
        assert not policy.entry_eligible(entry(seq=current.tcp_seq), current)
        assert not policy.entry_eligible(
            entry(seq=current.tcp_seq + self.MSS), current)

    def test_large_k_matches_tcp_seq_eligibility(self):
        """§VII: as k grows the behaviour must converge to TCP-seq."""
        kdist = KDistancePolicy(k=10_000, mss=self.MSS)
        tcp_seq_policy = TcpSeqPolicy()
        kdist.may_encode(self.seq_meta(0))  # learn the flow's stream base
        current = self.seq_meta(500)
        for segment_index in range(500):
            candidate = entry(seq=1 + segment_index * self.MSS)
            assert kdist.entry_eligible(candidate, current) == \
                tcp_seq_policy.entry_eligible(candidate, current)

    def test_cross_flow_ineligible(self):
        policy = KDistancePolicy(k=4, mss=self.MSS)
        other = entry(seq=1, flow=("x", 1, "y", 2))
        assert not policy.entry_eligible(other, self.seq_meta(2))

    @pytest.mark.parametrize("cls", [KDistancePolicy, AdaptiveKDistancePolicy])
    def test_flow_starting_raw_keeps_its_group_grid(self, cls):
        """A flow whose first segments ship force_raw (a post-resync
        grace window skips may_encode and entry_eligible) still learns
        its stream base from them, so the policy's groups are the
        oracle's: no group-bound violation with the harness armed."""
        from repro.verify.oracles import VerificationHarness

        policy = (KDistancePolicy(k=8, mss=self.MSS) if cls is KDistancePolicy
                  else cls(k_min=8, k_max=8, mss=self.MSS))
        encoder = ByteCachingEncoder(FingerprintScheme(), ByteCache(), policy)
        VerificationHarness().attach_cores(encoder)
        payload = random.Random(5).randbytes(self.MSS)
        encoded = [encoder.encode(payload, self.seq_meta(i, packet_id=i),
                                  force_raw=i < 3).encoded
                   for i in range(20)]
        # Segments 8 and 16 lead their groups; every other segment past
        # the raw ones encodes against an earlier one of its group.
        assert encoded == ([False] * 3 + [True] * 5 + [False] + [True] * 7
                           + [False] + [True] * 3)


class TestAdaptiveKDistance:
    def test_loss_estimate_rises_on_retransmissions(self):
        policy = AdaptiveKDistancePolicy(ewma_alpha=0.5, initial_loss=0.0)
        cache = ByteCache()
        policy.before_packet(meta(1, seq=0), cache)
        policy.before_packet(meta(2, seq=1460), cache)
        before = policy.loss_estimate
        policy.before_packet(meta(3, seq=0), cache)   # retransmission
        assert policy.loss_estimate > before

    def test_k_shrinks_under_loss(self):
        policy = AdaptiveKDistancePolicy(k_min=2, k_max=64, ewma_alpha=0.5,
                                         initial_loss=0.0)
        cache = ByteCache()
        policy.before_packet(meta(1, seq=0), cache)
        k_clean = policy.k
        # Hammer with retransmissions.
        for _ in range(10):
            policy.before_packet(meta(2, seq=0), cache)
        assert policy.k < k_clean
        assert policy.k >= policy.k_min

    def test_k_recovers_when_clean(self):
        policy = AdaptiveKDistancePolicy(k_min=2, k_max=64, ewma_alpha=0.3,
                                         initial_loss=0.5)
        cache = ByteCache()
        for i in range(200):
            policy.before_packet(meta(i, seq=i * 1460), cache)
        assert policy.k == policy.k_max


class TestAckGated:
    def make(self):
        scheme = FingerprintScheme()
        policy = AckGatedPolicy()
        encoder = ByteCachingEncoder(scheme, ByteCache(), policy)
        return policy, encoder

    def test_tcp_data_deferred(self):
        policy, encoder = self.make()
        rng = random.Random(0)
        payload = bytes(rng.randrange(256) for _ in range(1460))
        result = encoder.encode(payload, meta(1, seq=0))
        assert result.cached is False
        assert encoder.cache.lookup(
            encoder.scheme.anchors(payload)[0][1]) is None

    def test_ack_commits_pending(self):
        policy, encoder = self.make()
        rng = random.Random(1)
        payload = bytes(rng.randrange(256) for _ in range(1460))
        encoder.encode(payload, meta(1, seq=0))

        class FakePkt:
            src, dst = FLOW[2], FLOW[0]

            class tcp:
                src_port, dst_port = FLOW[3], FLOW[1]
                ack = 1460
                has_ack = True
                data = b""

            tcp = tcp()

        policy.on_reverse_packet(FakePkt(), encoder.cache)
        assert policy.committed == 1
        anchor_fp = encoder.scheme.anchors(payload)[0][1]
        assert encoder.cache.lookup(anchor_fp) is not None

    def test_partial_ack_does_not_commit(self):
        policy, encoder = self.make()
        rng = random.Random(2)
        payload = bytes(rng.randrange(256) for _ in range(1460))
        encoder.encode(payload, meta(1, seq=0))

        class FakePkt:
            src, dst = FLOW[2], FLOW[0]

            class tcp:
                src_port, dst_port = FLOW[3], FLOW[1]
                ack = 700
                has_ack = True
                data = b""

            tcp = tcp()

        policy.on_reverse_packet(FakePkt(), encoder.cache)
        assert policy.committed == 0

    def test_pending_bounded(self):
        policy = AckGatedPolicy(max_pending=3)
        for i in range(5):
            policy.defer_cache(b"x", [], meta(i, seq=i * 1460))
        assert policy.dropped_pending == 2

    def test_non_tcp_caches_immediately(self):
        policy = AckGatedPolicy()
        assert policy.should_cache_now(PacketMeta(packet_id=1))
