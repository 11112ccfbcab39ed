"""Integration tests reproducing §IV's circular-dependency stall.

These tests force a *single, deterministic* packet event (loss,
corruption or re-ordering) and check that:

* the naive Spring & Wetherall policy livelocks — every retransmission
  of the affected segment is encoded against a copy of itself, so the
  decoder can never reconstruct it and TCP ultimately aborts;
* each of the paper's three robust policies survives the identical
  event and delivers the file intact.
"""

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.runner import (FILE_NAME, Fetch, build_testbed,
                                      run_fetches)
from repro.workload.corpus import corpus_object

FILE_SIZE = 40 * 1460


def run_with_event(policy, policy_kwargs=None, drop_nth_data=5,
                   corrupt_instead=False, time_limit=200.0, spans=False):
    """Run a transfer dropping (or corrupting) exactly one data packet."""
    config = ExperimentConfig(
        corpus="file1", file_size=FILE_SIZE, corpus_seed=3,
        policy=policy, policy_kwargs=policy_kwargs or {},
        loss_rate=0.0, seed=2, time_limit=time_limit,
        tcp_max_retries=6, tcp_min_rto=0.05, tcp_max_rto=0.5,
        verify_content=True, spans=spans)
    testbed = build_testbed(config)
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)

    # Interpose on the bottleneck link: affect exactly one data packet.
    link = testbed.bottleneck_forward
    original = link.send
    state = {"count": 0, "fired": False, "sizes_after_event": []}

    def tampering_send(pkt):
        segment = pkt.tcp
        if segment is not None and segment.data:
            state["count"] += 1
            if state["count"] == drop_nth_data and not state["fired"]:
                state["fired"] = True
                if corrupt_instead:
                    segment.data = bytes(len(segment.data))  # zero it out
                else:
                    return  # drop silently
            elif state["fired"]:
                state["sizes_after_event"].append(len(segment.data))
        original(pkt)

    link.send = tampering_send
    outcome = run_fetches(testbed, config, {FILE_NAME: data},
                          [Fetch()]).outcomes[0]
    return testbed, outcome, state


class TestNaiveLivelock:
    def test_single_loss_stalls_connection(self):
        testbed, outcome, _state = run_with_event("naive")
        assert not outcome.completed
        server_conn = testbed.server_stack.connections()[0]
        assert server_conn.close_reason == "stalled"
        # The client received everything before the lost packet and
        # nothing after it — the file retrieval "comes to an end" (§IV-C).
        assert 0 < outcome.bytes_received < FILE_SIZE

    def test_single_corruption_stalls_connection(self):
        testbed, outcome, _state = run_with_event("naive",
                                                  corrupt_instead=True)
        assert not outcome.completed

    def test_retransmissions_are_self_encoded(self):
        """The smoking gun of §IV-B: after the loss, retransmitted
        copies of the segment leave the encoder a few bytes long —
        encoded against (a previous copy of) themselves."""
        testbed, outcome, state = run_with_event("naive")
        # Among packets that crossed the bottleneck after the drop, the
        # repeated tiny ones are the self-encoded retransmissions.
        tiny = [size for size in state["sizes_after_event"] if size < 60]
        assert len(tiny) >= 3
        # The decoder kept dropping them as undecodable.
        assert testbed.gateways.decoder.stats.dropped_total >= 3


@pytest.mark.parametrize("policy,kwargs", [
    ("cache_flush", {}),
    ("tcp_seq", {}),
    ("k_distance", {"k": 8}),
])
class TestRobustPoliciesSurvive:
    def test_single_loss_recovered(self, policy, kwargs):
        testbed, outcome, _state = run_with_event(policy, kwargs)
        assert outcome.completed
        assert outcome.content_ok is True

    def test_single_corruption_recovered(self, policy, kwargs):
        testbed, outcome, _state = run_with_event(policy, kwargs,
                                                  corrupt_instead=True)
        assert outcome.completed
        assert outcome.content_ok is True


class TestReordering:
    def test_reordered_packet_survivable_with_robust_policy(self):
        config = ExperimentConfig(
            corpus="file1", file_size=FILE_SIZE, corpus_seed=3,
            policy="cache_flush", reorder_rate=0.2, seed=4,
            time_limit=200.0, verify_content=True)
        from repro.experiments.runner import run_transfer

        result = run_transfer(config)
        assert result.completed
        assert result.outcome.content_ok is True
