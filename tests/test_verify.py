"""The verification subsystem: oracles, differential runner, fuzzer.

Covers the acceptance criteria of the verify layer:

* ``verify=True`` on the naive policy under loss raises an
  :class:`InvariantViolation` identifying the §IV circular dependency,
  while the paper's three robust policies run the full Fig. 10 loss
  grid violation-free;
* the cache-coherence oracle catches a deliberately poisoned decoder
  store and the byte-integrity oracle catches a wrong delivered chunk;
* the differential runner's three comparisons all agree, and the ring
  table encodes byte-identically to the dict-table oracle;
* the fuzzer finds an injected policy bug, shrinks it to a minimal
  case, and the JSON round-trip replays to the same oracle.
"""

import json

import pytest

from repro.core import (ByteCache, ByteCachingDecoder, ByteCachingEncoder,
                        FingerprintScheme)
from repro.core.policies import ENCODER_POLICIES, PacketMeta, make_policy_pair
from repro.experiments import ExperimentConfig, run_transfer
from repro.core.checksum import payload_checksum
from repro.sim.rng import RngRegistry
from repro.verify import InvariantViolation, VerificationHarness
from repro.verify.differential import run_differential
from repro.verify.fuzz import (MSS, FuzzCase, case_from_json, case_to_json,
                               generate_case, run_campaign, run_case, shrink)

from tests.test_chaos_campaign import MALFORMED

FLOW = ("s", 80, "c", 5000)

#: Fig. 10's loss-rate axis (0–20 %).
F10_LOSSES = (0.0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20)

PAPER_POLICIES = ("cache_flush", "tcp_seq", "k_distance")


def _core_pair(policy_name, **policy_kwargs):
    """Bare encoder/decoder cores with the harness attached."""
    scheme = FingerprintScheme()
    enc_policy, dec_policy = make_policy_pair(policy_name, **policy_kwargs)
    encoder = ByteCachingEncoder(scheme, ByteCache(), enc_policy)
    decoder = ByteCachingDecoder(scheme, ByteCache(), dec_policy)
    harness = VerificationHarness()
    harness.attach_cores(encoder, decoder)
    return encoder, decoder, harness


# ---------------------------------------------------------------------------
# online oracles, end to end
# ---------------------------------------------------------------------------

class TestOnlineOracles:
    def test_naive_livelock_raises_circular_dependency(self):
        """§IV: the naive policy under loss encodes a retransmission
        against its own cached copy; verify=True pinpoints it."""
        config = ExperimentConfig(
            policy="naive", loss_rate=0.01, seed=11, verify=True,
            time_limit=120.0, tcp_max_retries=8, tcp_max_rto=2.0)
        with pytest.raises(InvariantViolation) as excinfo:
            run_transfer(config)
        violation = excinfo.value
        assert violation.oracle == "circular_dependency"
        assert "circular dependency" in violation.message
        # The context identifies the offending encoding precisely.
        assert violation.context["seq_stored"] >= violation.context["seq_new"]
        # ... and carries the flight recorder for post-mortem.
        assert violation.flight_recorder

    @pytest.mark.parametrize("policy", PAPER_POLICIES)
    def test_paper_policies_run_f10_grid_violation_free(self, policy):
        """The three robust policies sweep the Fig. 10 loss axis with
        every oracle armed and never trip one."""
        for loss in F10_LOSSES:
            result = run_transfer(ExperimentConfig(
                policy=policy, loss_rate=loss, seed=11,
                file_size=40 * 1460, verify=True,
                time_limit=120.0, tcp_max_retries=8, tcp_max_rto=2.0))
            assert result.completed, (policy, loss)

    def test_verify_off_leaves_hooks_unarmed(self):
        from repro.experiments.runner import build_testbed

        testbed = build_testbed(ExperimentConfig(policy="cache_flush"))
        assert testbed.verifier is None
        assert testbed.gateways.encoder.encoder.verifier is None
        assert testbed.gateways.decoder.decoder.verifier is None

    def test_oracles_follow_policy_declaration(self):
        """Each policy arms exactly the oracles it declares."""
        encoder, _decoder, harness = _core_pair("k_distance", k=4)
        assert sorted(oracle.name for oracle in harness.oracles) == \
            ["circular_dependency", "k_distance"]
        # A scheme with no oracle of its own arms the §IV one alone.
        encoder, _decoder, harness = _core_pair("ack_gated")
        assert [oracle.name for oracle in harness.oracles] == \
            ["circular_dependency"]

    @pytest.mark.parametrize("policy", sorted(ENCODER_POLICIES))
    def test_every_policy_faces_the_circular_dependency_oracle(self, policy):
        """No registered scheme may opt out of the §IV property."""
        _encoder, _decoder, harness = _core_pair(policy)
        assert "circular_dependency" in [oracle.name
                                         for oracle in harness.oracles]


class TestCoherenceOracle:
    def _populate(self, encoder, decoder, rng, count=4):
        for index in range(count):
            payload = rng.randbytes(1460)
            meta = PacketMeta(packet_id=index, flow=FLOW,
                              tcp_seq=index * 1460, counter=index)
            result = encoder.encode(payload, meta)
            outcome = decoder.decode(result.data, meta,
                                     checksum=payload_checksum(payload))
            assert outcome.ok

    def test_clean_caches_pass(self):
        encoder, decoder, harness = _core_pair("cache_flush")
        self._populate(encoder, decoder,
                       RngRegistry(5).stream("coherence.clean"))
        assert harness.check_coherence()
        assert harness.violations == 0
        assert harness.coherence_checks == 1

    def test_poisoned_decoder_store_raises(self):
        """Flip bytes inside the decoder's packet store: the quiescent
        coherence scan must catch the divergence."""
        encoder, decoder, harness = _core_pair("cache_flush")
        self._populate(encoder, decoder,
                       RngRegistry(6).stream("coherence.poison"))
        store = decoder.cache.store._data
        victim = next(iter(store))
        store[victim] = bytes(len(store[victim]))   # zeroed payload
        with pytest.raises(InvariantViolation) as excinfo:
            harness.check_coherence()
        assert excinfo.value.oracle == "cache_coherence"
        assert "poisoned" in excinfo.value.message

    def test_decoder_gaps_are_legal(self):
        """Entries only the encoder holds (lost carriers = perceived
        loss) are not a coherence violation."""
        encoder, decoder, harness = _core_pair("cache_flush")
        rng = RngRegistry(7).stream("coherence.gaps")
        for index in range(4):
            payload = rng.randbytes(1460)
            meta = PacketMeta(packet_id=index, flow=FLOW,
                              tcp_seq=index * 1460, counter=index)
            result = encoder.encode(payload, meta)
            if index % 2 == 0:   # odd packets "lost" before the decoder
                decoder.decode(result.data, meta,
                               checksum=payload_checksum(payload))
        assert harness.check_coherence()
        assert harness.violations == 0


class TestByteIntegrityOracle:
    def test_correct_prefix_accepted(self):
        harness = VerificationHarness()
        sink = harness.integrity_sink(b"the quick brown fox")
        sink(b"the quick")
        sink(b" brown fox")
        assert harness.violations == 0

    def test_wrong_chunk_raises_with_first_diff(self):
        harness = VerificationHarness()
        sink = harness.integrity_sink(b"the quick brown fox")
        sink(b"the quick")
        with pytest.raises(InvariantViolation) as excinfo:
            sink(b" brawn fox")
        assert excinfo.value.oracle == "byte_integrity"
        assert excinfo.value.context["first_diff"] == 12


# ---------------------------------------------------------------------------
# per-policy safety oracles on bare cores
# ---------------------------------------------------------------------------

class TestPolicyOracles:
    def test_tcp_seq_violation_detected_when_gate_disabled(self):
        """Disable the Fig. 7 guard: the first self-referencing region
        trips the oracle even though the policy said yes."""
        encoder, _decoder, _harness = _core_pair("tcp_seq")
        encoder.policy.entry_eligible = lambda entry, meta: True
        payload = RngRegistry(8).stream("tcpseq").randbytes(1460)
        meta0 = PacketMeta(packet_id=0, flow=FLOW, tcp_seq=0, counter=0)
        encoder.encode(payload, meta0)
        with pytest.raises(InvariantViolation) as excinfo:
            # Retransmission: same seq, payload already cached.
            encoder.encode(payload, PacketMeta(packet_id=1, flow=FLOW,
                                               tcp_seq=0, counter=1))
        assert excinfo.value.oracle in ("circular_dependency", "tcp_seq")

    def test_k_distance_group_bound_enforced(self):
        """Lose the group window (keep same-flow): a region sourcing a
        segment before the current group's reference must trip."""
        encoder, _decoder, _harness = _core_pair("k_distance", k=2)
        encoder.policy.entry_eligible = (
            lambda entry, meta: entry.flow == meta.flow
            and entry.tcp_seq is not None)
        rng = RngRegistry(9).stream("kdist")
        shared = rng.randbytes(600)
        # The shared run appears only in segment 0 (group [0, 2920))
        # and in segment 3 (group [2920, 5840)): the cache's only entry
        # for it lives in the previous group, so encoding segment 3
        # against it crosses the reference boundary.
        payloads = [shared + rng.randbytes(100), rng.randbytes(700),
                    rng.randbytes(700), shared + rng.randbytes(100)]
        with pytest.raises(InvariantViolation) as excinfo:
            for index, payload in enumerate(payloads):
                encoder.encode(payload,
                               PacketMeta(packet_id=index, flow=FLOW,
                                          tcp_seq=index * 1460,
                                          counter=index))
        assert excinfo.value.oracle == "k_distance"
        assert "group" in excinfo.value.message

    def test_cache_flush_floor_enforced(self):
        """Suppress the flush: a post-retransmission region sourcing a
        pre-flush entry must trip the flush-floor oracle."""
        encoder, _decoder, _harness = _core_pair("cache_flush")
        encoder.policy.before_packet = lambda meta, cache: None
        rng = RngRegistry(10).stream("cacheflush")
        shared = rng.randbytes(600)
        first = shared + rng.randbytes(100)
        encoder.encode(first, PacketMeta(packet_id=0, flow=FLOW,
                                         tcp_seq=0, counter=0))
        encoder.encode(rng.randbytes(700),
                       PacketMeta(packet_id=1, flow=FLOW,
                                  tcp_seq=1460, counter=1))
        with pytest.raises(InvariantViolation) as excinfo:
            # Retransmit segment 0 — without a flush it is encoded
            # against cached pre-retransmission state.
            encoder.encode(first, PacketMeta(packet_id=2, flow=FLOW,
                                             tcp_seq=0, counter=2))
        assert excinfo.value.oracle in ("circular_dependency", "cache_flush")


# ---------------------------------------------------------------------------
# differential runner
# ---------------------------------------------------------------------------

class TestDifferential:
    def test_all_comparisons_agree(self):
        results = run_differential("smoke")
        assert [r.name for r in results] == \
            ["sweep-parallelism", "resilience", "sharded-vs-unsharded"]
        for result in results:
            assert result.matched, str(result)

    def test_table_impls_comparison(self):
        """Ring table vs the dict-table oracle over the three-phase
        workload, at the smoke and the CI-only headline size."""
        from repro.verify.differential import _offline_packets
        from tests.reference_cache import DictByteCache, PerAnchorEncoder

        def encode(encoder_cls, cache_cls, packets):
            policy, _ = make_policy_pair("naive")
            encoder = encoder_cls(FingerprintScheme(window=16, zero_bits=4),
                                  cache_cls(16 * 1024 * 1024), policy)
            wire = [encoder.encode(payload, PacketMeta(
                        packet_id=counter, flow=("diff", 0),
                        tcp_seq=counter * 1460, counter=counter)).data
                    for counter, payload in enumerate(packets)]
            return wire, encoder.stats

        for n_packets in (96, 384):
            packets = _offline_packets(n_packets)
            ring = encode(ByteCachingEncoder, ByteCache, packets)
            reference = encode(PerAnchorEncoder, DictByteCache, packets)
            assert ring == reference
            assert ring[1].packets_encoded > n_packets // 2

    def test_sharding_comparison(self):
        from repro.verify.differential import compare_sharding

        result = compare_sharding(n_packets=48, file_size=20 * 1460)
        assert result.matched, result.detail
        assert result.name == "sharded-vs-unsharded"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            run_differential("galactic")


# ---------------------------------------------------------------------------
# fuzzer
# ---------------------------------------------------------------------------

class TestFuzzer:
    def test_case_generation_is_deterministic(self):
        assert generate_case(7, 3) == generate_case(7, 3)
        assert generate_case(7, 3) != generate_case(7, 4)
        assert generate_case(7, 3) != generate_case(8, 3)

    def test_clean_campaign_finds_nothing(self):
        result = run_campaign(7, 15)
        assert result.violations == 0

    def test_injected_bug_found_shrunk_and_replayable(self, tmp_path):
        campaign = run_campaign(7, 20, inject_bug="tcp_seq_gate")
        assert campaign.violations >= 1
        shrunk = campaign.shrunk_case
        assert shrunk is not None
        assert len(shrunk.fault_events) < 20
        assert campaign.shrunk_violation is not None

        # JSON round-trip and replay reproduce the same oracle.
        path = tmp_path / "case.json"
        path.write_text(case_to_json(shrunk, campaign.shrunk_violation))
        replayed = case_from_json(path.read_text())
        assert replayed == shrunk
        outcome = run_case(replayed)
        assert outcome.violation is not None
        assert outcome.violation["oracle"] == \
            campaign.shrunk_violation["oracle"]

    @pytest.mark.parametrize("bug, oracles", [
        ("tcp_seq_gate", ("circular_dependency", "tcp_seq")),
        ("k_distance_gate", ("circular_dependency", "k_distance")),
    ])
    def test_gate_bugs_surface_through_per_record_eligibility(self, bug,
                                                              oracles):
        """A patched-out gate answers once per source packet now; the
        oracle still sees the region that answer let through."""
        campaign = run_campaign(7, 20, inject_bug=bug)
        assert campaign.violations >= 1
        assert campaign.shrunk_violation["oracle"] in oracles

    def test_shrink_drops_irrelevant_fault_events(self):
        """A reproducer that ignores faults entirely shrinks to zero
        fault events and the minimum object."""
        case = FuzzCase(seed=1, policy="tcp_seq", file_size=40 * 1460,
                        loss_rate=0.05,
                        fault_events=[{"kind": "drop_data", "nth": 3},
                                      {"kind": "evict", "side": "decoder",
                                       "offset": 0.5, "fraction": 0.5}])
        minimal = shrink(case, reproduces=lambda c: True)
        assert minimal.fault_events == []
        assert minimal.file_size < case.file_size
        assert minimal.loss_rate == 0.0

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            case_from_json(json.dumps({"schema": "other/v9", "case": {}}))

    @pytest.mark.parametrize("event, message", MALFORMED)
    def test_malformed_event_refused_when_the_case_loads(self, event,
                                                        message):
        """Refused by case_from_json, before any testbed is built."""
        text = case_to_json(FuzzCase(seed=1, fault_events=[
            {"kind": "drop_data", "nth": 2}, event]))
        with pytest.raises(ValueError,
                           match=f"fault_events\\[1\\]: {message}"):
            case_from_json(text)

    def test_restart_replays_with_the_campaign_key(self):
        """The event a campaign would write loads and arms in a case."""
        event = {"kind": "restart", "side": "encoder", "offset": 0.1}
        case = case_from_json(case_to_json(FuzzCase(
            seed=1, resilience=True, fault_events=[event])))
        outcome = run_case(case)
        assert outcome.faults_applied == 1
        assert outcome.violation is None

    # FuzzOutcome (completed, stalled, repr(sim_time), faults_applied)
    # of one 200-segment tcp_seq case per fault kind, pinned from the
    # two per-caller fault tables this vocabulary replaced.
    @pytest.mark.parametrize("events, expected", [
        ([], (True, False, "0.2796323039999997", 0)),
        ([{"kind": "drop_data", "nth": 4}],
         (True, False, "0.3700951359999991", 1)),
        ([{"kind": "corrupt_data", "nth": 6}],
         (True, False, "0.37352237599999893", 1)),
        ([{"kind": "delay_data", "nth": 3, "delay": 0.05}],
         (True, False, "0.4191570479999993", 1)),
        ([{"kind": "restart", "side": "decoder", "offset": 0.03,
           "downtime": 0.02},
          {"kind": "drop_control", "ctrl": "cache_resync", "nth": 1}],
         (True, False, "0.6838756080000004", 2)),
        ([{"kind": "restart", "side": "decoder", "offset": 0.03,
           "downtime": 0.02}],
         (True, False, "0.48985754399999926", 1)),
        ([{"kind": "evict", "side": "decoder", "offset": 0.03,
           "fraction": 1.0}],
         (True, False, "0.44816746399999907", 1)),
    ], ids=["none", "drop_data", "corrupt_data", "delay_data",
            "drop_control", "restart", "evict"])
    def test_each_fault_kind_keeps_its_outcome(self, events, expected):
        case = FuzzCase(seed=5, policy="tcp_seq", file_size=200 * MSS,
                        loss_rate=0.01, resilience=True,
                        fault_events=events)
        outcome = run_case(case)
        assert outcome.violation is None
        assert (outcome.completed, outcome.stalled, repr(outcome.sim_time),
                outcome.faults_applied) == expected


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCli:
    def test_verify_command(self, capsys):
        from repro.cli import main

        assert main(["verify", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "all 3 differential comparisons agree" in out

    def test_fuzz_command_clean(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--seed", "7", "--iterations", "5"]) == 0
        assert "no invariant violations" in capsys.readouterr().out

    def test_fuzz_command_inject_and_replay(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = str(tmp_path / "cases")
        assert main(["fuzz", "--seed", "7", "--iterations", "10",
                     "--inject-bug", "tcp_seq_gate",
                     "--out-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "VIOLATION" in out
        case_files = list((tmp_path / "cases").glob("*.json"))
        assert len(case_files) == 1
        assert main(["fuzz", "--replay", str(case_files[0])]) == 0
        assert "replay MATCHES" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# telemetry integration
# ---------------------------------------------------------------------------

def test_verify_counters_surface_in_telemetry_export():
    result = run_transfer(ExperimentConfig(
        policy="cache_flush", file_size=30 * 1460, loss_rate=0.05,
        seed=11, verify=True, telemetry=True))
    assert result.completed
    gauges = result.telemetry["final_gauges"]
    assert gauges["verify.regions_checked"] > 0
    assert gauges["verify.coherence_checks"] > 0
