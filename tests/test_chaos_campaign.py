"""Tests for the chaos campaign engine: spec, SLO oracles, runner.

The end-to-end acceptance tests at the bottom run the canonical
``handover-storm`` campaign once per module (smoke scale, parallel
workers) and assert the ISSUE's acceptance criteria: all oracles pass
for the three §V policies with the resilience layer on, at least one
fails with it off, and the scorecard replays byte-for-byte.
"""

import hashlib
import json
import math
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.chaos import (CAMPAIGNS, CHAOS_POLICIES, CHAOS_SCHEMA, Campaign,
                         CampaignCell, Phase, canonical_campaign,
                         evaluate_slos, format_scorecard, replay_report,
                         run_campaign, validate_chaos_report)
from repro.chaos.campaign import POLICY_KWARGS
from repro.chaos.runner import arm_campaign
from repro.chaos.slo import ORACLES, SERVING_ORACLES, phase_recovery_times
from repro.cli import main
from repro.experiments.runner import build_testbed
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.metrics.series import percentile
from repro.serving import ServingSpec
from repro.sim.faults import (GATEWAY_KINDS, INJECTION_KINDS, ArmedFaults,
                              arm_injection)

WORKERS = 4

#: One well-formed injection per kind, and the link directions it puts a
#: FaultInjector on.
SAMPLES = {
    "drop_data": ({"kind": "drop_data", "nth": 3}, {"forward"}),
    "corrupt_data": ({"kind": "corrupt_data", "nth": 3}, {"forward"}),
    "delay_data": ({"kind": "delay_data", "nth": 3, "delay": 0.05},
                   {"forward"}),
    "drop_control": ({"kind": "drop_control", "ctrl": "heartbeat",
                      "nth": 1}, {"forward", "reverse"}),
    "reorder_data": ({"kind": "reorder_data", "every": 3}, {"forward"}),
    "dup_data": ({"kind": "dup_data", "every": 3}, {"forward"}),
    "loss": ({"kind": "loss", "link": "reverse", "rate": 0.1}, set()),
    "bursty_loss": ({"kind": "bursty_loss", "loss_bad": 0.5}, set()),
    "link_flap": ({"kind": "link_flap", "down_for": 0.1, "offset": 0.2},
                  set()),
    "partition": ({"kind": "partition", "duration": 0.1}, set()),
    "control_blackout": ({"kind": "control_blackout"},
                         {"forward", "reverse"}),
    "restart": ({"kind": "restart", "side": "decoder", "offset": 0.1,
                 "downtime": 0.1}, set()),
    "evict": ({"kind": "evict", "side": "encoder", "offset": 0.1}, set()),
    "memory_pressure": ({"kind": "memory_pressure", "side": "decoder",
                         "offset": 0.1, "duration": 0.2}, set()),
    "clock_skew": ({"kind": "clock_skew", "factor": 2.0, "offset": 0.1},
                   set()),
}

#: Malformed injections, each refused at load with a message naming it.
MALFORMED = [
    ({"kind": "meteor-strike"}, "unknown injection kind 'meteor-strike'"),
    ({"kind": "restart", "offset": 0.1}, "restart injection needs 'side'"),
    ({"kind": "drop_data"}, "drop_data injection needs 'nth'"),
    ({"kind": "dup_data"}, "dup_data injection needs 'every'"),
    ({"kind": "link_flap"}, "link_flap injection needs 'down_for'"),
    ({"kind": "clock_skew"}, "clock_skew injection needs 'factor'"),
    ({"kind": "restart", "side": "encoder", "at": 0.1},
     "restart injection takes no 'at'"),
    ({"kind": "evict", "side": "middle"}, "unknown gateway side 'middle'"),
    ({"kind": "bursty_loss", "link": "sideways"}, "unknown link 'sideways'"),
]


# ---------------------------------------------------------------------------
# spec round-trip and validation
# ---------------------------------------------------------------------------

class TestCampaignSpec:
    def test_canonical_names(self):
        assert sorted(CAMPAIGNS) == [
            "brownout-thrash", "cache-thrash", "clock-drift",
            "degraded-brownout", "dup-reorder-storm", "flaky-backhaul",
            "handover-storm", "split-brain-resync",
        ]

    def test_every_canonical_campaign_builds_at_both_scales(self):
        for name in CAMPAIGNS:
            for scale in ("smoke", "full"):
                campaign = canonical_campaign(name, scale)
                assert campaign.name == name
                assert campaign.scale == scale
                assert campaign.phases

    def test_unknown_name_and_scale_raise(self):
        with pytest.raises(ValueError):
            canonical_campaign("no-such-campaign")
        with pytest.raises(ValueError):
            canonical_campaign("handover-storm", "extra-large")

    def test_round_trip_through_json(self):
        campaign = canonical_campaign("handover-storm", "full")
        doc = json.loads(json.dumps(campaign.to_dict()))
        rebuilt = Campaign.from_dict(doc)
        assert rebuilt.to_dict() == campaign.to_dict()

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase("p", 0.0, 0.0)
        with pytest.raises(ValueError):
            Phase("p", -1.0, 1.0)
        with pytest.raises(ValueError):
            Phase("p", 0.0, 1.0, [{"kind": "meteor-strike"}])

    @pytest.mark.parametrize("injection, message", MALFORMED)
    def test_malformed_injection_refused_when_the_phase_loads(
            self, injection, message):
        """Refused by Phase, not by a worker halfway through a run."""
        with pytest.raises(ValueError, match=f"phase 'p': {message}"):
            Phase("p", 0.1, 0.5, [injection])

    @pytest.mark.parametrize("rate", [1.5, -0.1, math.nan, None, "0.1"])
    def test_loss_rate_checked_at_load(self, rate):
        """A campaign file's extra loss rate is refused when the phase is
        built, not read as 0 % or 100 % loss at run time."""
        injection = {"kind": "loss", "link": "forward", "rate": rate}
        if rate is None:
            del injection["rate"]
        payload = {"name": "p", "start": 0.0, "duration": 1.0,
                   "injections": [injection]}
        with pytest.raises(ValueError, match="loss rate"):
            Phase.from_dict(payload)
        injection["rate"] = 0.25
        assert Phase.from_dict(payload).injections == [injection]

    def test_campaign_validation(self):
        with pytest.raises(ValueError):
            Campaign(name="c", description="", phases=[])
        phases = [Phase("late", 1.0, 1.0), Phase("early", 0.0, 1.0)]
        with pytest.raises(ValueError):
            Campaign(name="c", description="", phases=phases)
        with pytest.raises(ValueError):
            Campaign(name="c", description="",
                     phases=[Phase("p", 0.0, 1.0)], seeds=())

    def test_config_baseline_has_no_dre_and_no_resilience(self):
        """run_sweep's twin of a campaign cell runs no DRE.  It keeps the
        cell's resilience and harness flags, but with no gateways
        neither has anything to arm."""
        campaign = canonical_campaign("handover-storm")
        dre = CampaignCell(campaign, "tcp_seq", 11).config()
        assert dre.policy == "tcp_seq" and dre.resilience and dre.verify
        assert dre.telemetry
        unshielded = CampaignCell(campaign, "tcp_seq", 11,
                                  resilience=False).config()
        assert unshielded.policy == "tcp_seq" and not unshielded.resilience

        (cell,) = run_sweep(SweepSpec(
            base=CampaignCell(campaign, "tcp_seq", 11), paired_baseline=True))
        twin = cell.baseline["result"]
        assert twin.policy == "none" and not twin.dre_enabled
        assert twin.encoder_resilience is None
        assert twin.decoder_resilience is None
        assert cell.result["result"].encoder_resilience is not None
        config = CampaignCell(campaign, None, 11).config()
        testbed = build_testbed(config)
        assert testbed.gateways is None and testbed.verifier is None


# ---------------------------------------------------------------------------
# SLO oracles on synthetic runs
# ---------------------------------------------------------------------------

def fake_result(completed=True, download_time=2.0, undecodable_drops=0,
                data_packets=100, degraded=False, telemetry=None,
                fraction_retrieved=1.0, stalled=False):
    return SimpleNamespace(
        completed=completed, download_time=download_time,
        fraction_retrieved=fraction_retrieved, stalled=stalled,
        undecodable_drops=undecodable_drops,
        encoder_stats=SimpleNamespace(data_packets=data_packets),
        encoder_resilience=SimpleNamespace(degraded=degraded),
        telemetry=telemetry)


def fake_campaign(**slo):
    return Campaign(name="synthetic", description="",
                    phases=[Phase("p", 0.0, 1.0)], slo=slo)


def by_name(slos):
    return {s.oracle: s for s in slos}


class TestOracles:
    def evaluate(self, result, baseline=None, mttrs=(), violation=None,
                 **slo):
        return by_name(evaluate_slos(fake_campaign(**slo), result, baseline,
                                     list(mttrs), violation))

    def test_clean_run_passes_everything(self):
        slos = self.evaluate(fake_result(), baseline=fake_result(),
                             mttrs=[0.5])
        assert [s.oracle for s in slos.values()] == list(ORACLES)
        assert all(s.passed for s in slos.values())

    def test_violation_fails_byte_integrity(self):
        slos = self.evaluate(
            fake_result(),
            violation={"oracle": "byte_integrity", "message": "mismatch"})
        assert not slos["byte_integrity"].passed
        assert "byte_integrity" in slos["byte_integrity"].detail

    def test_goodput_floor_incomplete_fails(self):
        slos = self.evaluate(fake_result(completed=False,
                                         fraction_retrieved=0.4,
                                         stalled=True))
        assert not slos["goodput_floor"].passed
        assert not slos["no_permanent_degradation"].passed

    def test_goodput_floor_ratio_against_baseline(self):
        slos = self.evaluate(fake_result(download_time=5.0),
                             baseline=fake_result(download_time=2.0),
                             goodput_delay_ratio=2.0)
        assert not slos["goodput_floor"].passed
        assert slos["goodput_floor"].value == pytest.approx(2.5)
        assert slos["goodput_floor"].threshold == 2.0

    def test_goodput_floor_vacuous_without_comparable_baseline(self):
        for baseline in (None, fake_result(completed=False)):
            slos = self.evaluate(fake_result(), baseline=baseline)
            assert slos["goodput_floor"].passed
            assert slos["goodput_floor"].value is None

    def test_undecodable_rate(self):
        slos = self.evaluate(fake_result(undecodable_drops=20,
                                         data_packets=100),
                             max_undecodable_rate=0.15)
        assert not slos["undecodable_rate"].passed
        assert slos["undecodable_rate"].value == pytest.approx(0.2)
        slos = self.evaluate(fake_result(undecodable_drops=5,
                                         data_packets=100),
                             max_undecodable_rate=0.15)
        assert slos["undecodable_rate"].passed

    def test_undecodable_rate_vacuous_with_no_data(self):
        slos = self.evaluate(fake_result(data_packets=0))
        assert slos["undecodable_rate"].passed

    def test_mttr_ceiling(self):
        slos = self.evaluate(fake_result(), mttrs=[0.5, 2.0, None],
                             mttr_ceiling=1.0)
        assert not slos["mttr_ceiling"].passed
        assert slos["mttr_ceiling"].value == pytest.approx(2.0)
        slos = self.evaluate(fake_result(), mttrs=[None, None])
        assert slos["mttr_ceiling"].passed      # nothing to measure

    def test_mttr_unrecovered_fails_any_ceiling(self):
        slos = self.evaluate(fake_result(), mttrs=[math.inf],
                             mttr_ceiling=1e9)
        assert not slos["mttr_ceiling"].passed
        assert "unrecovered" in slos["mttr_ceiling"].detail

    def test_no_permanent_degradation(self):
        slos = self.evaluate(fake_result(degraded=True))
        assert not slos["no_permanent_degradation"].passed
        telemetry = {"final_gauges":
                     {"resilience.resyncing{gw=decoder}": 1.0},
                     "sampler": {"times": [], "series": {}}}
        slos = self.evaluate(fake_result(telemetry=telemetry))
        assert not slos["no_permanent_degradation"].passed
        assert "resyncing" in slos["no_permanent_degradation"].detail


class TestPhaseRecoveryTimes:
    def telemetry(self, times, decoded, resyncing=None, degraded=None):
        series = {"gw.decoded_ok{gw=decoder}": decoded}
        if resyncing is not None:
            series["resilience.resyncing{gw=decoder}"] = resyncing
        if degraded is not None:
            series["resilience.degraded{gw=encoder}"] = degraded
        return {"sampler": {"times": times, "series": series}}

    def test_recovery_at_first_healthy_progressing_sample(self):
        telemetry = self.telemetry(
            times=[0.0, 1.0, 2.0, 3.0, 4.0],
            decoded=[5, 10, 10, 10, 14],
            resyncing=[0, 0, 0, 1, 0])
        [mttr] = phase_recovery_times(telemetry, [1.5])
        # t=2.0: no progress; t=3.0: resyncing; t=4.0: recovered.
        assert mttr == pytest.approx(2.5)

    def test_run_over_before_phase_end_is_none(self):
        telemetry = self.telemetry(times=[0.0, 1.0], decoded=[5, 10])
        assert phase_recovery_times(telemetry, [1.0, 5.0]) == [None, None]

    def test_never_recovered_is_inf(self):
        telemetry = self.telemetry(
            times=[0.0, 1.0, 2.0, 3.0],
            decoded=[5, 5, 5, 5])
        [mttr] = phase_recovery_times(telemetry, [0.5])
        assert math.isinf(mttr)

    def test_missing_series_defaults_are_benign(self):
        telemetry = self.telemetry(times=[0.0, 1.0, 2.0],
                                   decoded=[0, 1, 2])
        [mttr] = phase_recovery_times(telemetry, [0.5])
        assert mttr == pytest.approx(0.5)


class TestPercentile:
    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.9) == 4.0
        assert percentile(values, 1.0) == 4.0
        assert percentile([], 0.5) is None


# ---------------------------------------------------------------------------
# arming onto a real testbed
# ---------------------------------------------------------------------------

class TestArming:
    def test_baseline_testbed_skips_gateway_faults(self):
        campaign = canonical_campaign("split-brain-resync")
        testbed = build_testbed(CampaignCell(campaign, None, 11).config())
        assert testbed.gateways is None
        armed = arm_campaign(campaign, testbed, 11)
        # restart/control_blackout injections were all skipped: nothing
        # scheduled touches a gateway and no injector was attached.
        assert armed.injectors == {}
        testbed.sim.run(until=1.0)            # scheduled events are sane

    def test_samples_cover_every_kind(self):
        assert set(SAMPLES) == set(INJECTION_KINDS)
        assert GATEWAY_KINDS < set(INJECTION_KINDS)

    @pytest.mark.parametrize("kind", sorted(INJECTION_KINDS))
    def test_dre_testbed_arms_gateway_faults(self, kind):
        """Every kind loads and arms on a DRE testbed, its scheduled
        faults run, and a gateway kind is skipped without gateways."""
        injection, directions = SAMPLES[kind]
        Phase("p", 0.2, 0.5, [injection])
        campaign = canonical_campaign("split-brain-resync")
        window = (0.2, 0.7)

        testbed = build_testbed(CampaignCell(campaign, "tcp_seq",
                                             11).config())
        armed = ArmedFaults()
        assert arm_injection(testbed, injection, window,
                             random.Random(0), armed)
        assert set(armed.injectors) == directions
        testbed.sim.run(until=1.0)

        baseline = build_testbed(CampaignCell(campaign, None, 11).config())
        pending = baseline.sim.pending()
        armed = ArmedFaults()
        skipped = not arm_injection(baseline, injection, window,
                                    random.Random(0), armed)
        assert skipped == (kind in GATEWAY_KINDS)
        if skipped:
            assert armed.injectors == {}
            assert baseline.sim.pending() == pending
        baseline.sim.run(until=1.0)


# ---------------------------------------------------------------------------
# report validation
# ---------------------------------------------------------------------------

def minimal_report_doc():
    campaign = canonical_campaign("handover-storm")
    run = {
        "policy": "tcp_seq", "seed": 11, "passed": True,
        "slos": [{"oracle": oracle, "passed": True, "value": None,
                  "threshold": None, "detail": ""} for oracle in ORACLES],
        "metrics": {"completed": True},
    }
    return {
        "schema": CHAOS_SCHEMA,
        "campaign": campaign.to_dict(),
        "policies": ["tcp_seq"],
        "resilience": True,
        "runs": [run],
        "summary": {"passed": True, "runs": 1, "failed_runs": 0},
    }


class TestValidateReport:
    def test_minimal_document_validates(self):
        validate_chaos_report(minimal_report_doc())

    def test_rejections(self):
        cases = [
            ("schema", "repro.chaos/v0"),
            ("runs", []),
        ]
        for key, value in cases:
            doc = minimal_report_doc()
            doc[key] = value
            with pytest.raises(ValueError):
                validate_chaos_report(doc)
        doc = minimal_report_doc()
        del doc["summary"]
        with pytest.raises(ValueError):
            validate_chaos_report(doc)
        doc = minimal_report_doc()
        doc["runs"][0]["slos"] = doc["runs"][0]["slos"][:3]
        with pytest.raises(ValueError):
            validate_chaos_report(doc)
        doc = minimal_report_doc()
        doc["runs"][0]["passed"] = False        # disagrees with slos
        with pytest.raises(ValueError):
            validate_chaos_report(doc)
        doc = minimal_report_doc()
        doc["summary"]["failed_runs"] = 3
        with pytest.raises(ValueError):
            validate_chaos_report(doc)

    def test_serving_target_runs_carry_the_serving_oracles(self, tmp_path,
                                                           capsys):
        doc = minimal_report_doc()
        doc["target"] = {"users": 60}
        with pytest.raises(ValueError, match="oracle set"):
            validate_chaos_report(doc)
        doc["runs"][0]["slos"] = doc["runs"][0]["slos"][:1] + [
            {"oracle": "completion", "passed": True, "value": None,
             "threshold": None, "detail": ""}]
        validate_chaos_report(doc)
        # A target the CLI cannot rebuild as a ServingSpec is a usage
        # error, refused before anything runs.
        doc["target"]["no_such_field"] = 1
        path = tmp_path / "bad-target.json"
        path.write_text(json.dumps(doc))
        assert main(["chaos", "replay", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "is not a repro.chaos/v1 report" in line


# ---------------------------------------------------------------------------
# end-to-end acceptance (one shared campaign execution per module)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def handover_report():
    campaign = canonical_campaign("handover-storm", "smoke")
    return run_campaign(campaign, workers=WORKERS)


class TestHandoverStormAcceptance:
    def test_all_policies_pass_every_oracle(self, handover_report):
        report = handover_report
        assert {run["policy"] for run in report.runs} == set(CHAOS_POLICIES)
        for run in report.runs:
            failed = [slo["oracle"] for slo in run["slos"]
                      if not slo["passed"]]
            assert not failed, (
                f"{run['policy']}/seed {run['seed']} failed {failed}")
        assert report.passed

    def test_report_document_validates(self, handover_report):
        doc = json.loads(json.dumps(handover_report.to_dict(),
                                    sort_keys=True))
        validate_chaos_report(doc)

    def test_faults_actually_fired(self, handover_report):
        # Guards against the campaign going vacuous: a transfer that
        # finishes before the storm phase never exercises anything.
        for run in handover_report.runs:
            faults = run["faults"]
            assert faults["crashes"], "decoder restart never fired"
            assert faults["link"]["reordered"], "reorder rule never matched"

    def test_scorecard_renders(self, handover_report):
        text = format_scorecard(handover_report)
        assert "handover-storm" in text
        for policy in CHAOS_POLICIES:
            assert policy in text
        assert "campaign verdict: PASS (3/3 runs passed)" in text

    def test_replay_is_byte_for_byte(self, handover_report):
        doc = json.loads(json.dumps(handover_report.to_dict(),
                                    sort_keys=True))
        fresh, matches = replay_report(doc, workers=WORKERS)
        assert matches
        assert fresh.passed


class TestResilienceOffFailsSlos:
    def test_unshielded_tcp_seq_breaks_at_least_one_oracle(self):
        campaign = canonical_campaign("handover-storm", "smoke")
        report = run_campaign(campaign, policies=("tcp_seq",),
                              resilience=False, workers=WORKERS)
        assert not report.passed
        [run] = report.runs
        failed = [slo["oracle"] for slo in run["slos"] if not slo["passed"]]
        assert failed, "expected the cold-cache handover to break an SLO"
        # The cold decoder cache on the longhaul corpus shows up as lost
        # goodput and/or undecodable packets — not as corrupted bytes.
        assert "byte_integrity" not in failed


# ---------------------------------------------------------------------------
# the serving target: the shared-cache testbed under a campaign
# ---------------------------------------------------------------------------

SERVING_TARGET = ServingSpec(users=60)


@pytest.fixture(scope="module")
def serving_report():
    # split-brain-resync starts flows inside the post-resync grace
    # window, where k_distance once broke its group bound.
    return run_campaign(canonical_campaign("split-brain-resync"),
                        target=SERVING_TARGET)


class TestServingTarget:
    def test_every_request_completes_byte_exact(self, serving_report):
        doc = serving_report.to_dict()
        validate_chaos_report(json.loads(json.dumps(doc)))
        assert doc["target"]["users"] == 60
        assert [run["policy"] for run in doc["runs"]] == list(CHAOS_POLICIES)
        for run in doc["runs"]:
            assert [slo["oracle"] for slo in run["slos"]] == \
                list(SERVING_ORACLES)
            assert run["passed"] and run["violation"] is None, run
            requests = run["metrics"]["requests"]
            assert requests["completed"] == requests["total"] > 100
            assert requests["content_mismatches"] == 0
            assert run["metrics"]["steady"]["hit_ratio"] > 0.3
            assert run["baseline"]["steady"]["hit_ratio"] == 0.0
            assert run["faults"]["crashes"], "decoder restart never fired"
        assert serving_report.passed
        assert "twin p99 s" in format_scorecard(serving_report)

    def test_parallel_is_bit_identical_to_serial(self, serving_report):
        pooled = run_campaign(canonical_campaign("split-brain-resync"),
                              target=SERVING_TARGET, workers=2)
        assert json.dumps(pooled.to_dict(), sort_keys=True) == \
            json.dumps(serving_report.to_dict(), sort_keys=True)

    def test_cli_replay_is_byte_for_byte(self, serving_report, tmp_path,
                                         capsys):
        path = tmp_path / "serving.json"
        path.write_text(json.dumps(serving_report.to_dict(), sort_keys=True))
        assert main(["chaos", "replay", str(path)]) == 0
        assert "replay MATCHES" in capsys.readouterr().out

    def test_replay_on_another_target_diverges(self, serving_report):
        doc = json.loads(json.dumps(serving_report.to_dict()))
        _, matches = replay_report(doc, target=ServingSpec(users=40))
        assert not matches


def brownout_thrash_decoder(policy):
    """Run the ``brownout-thrash`` serving cell at seed 11 the way
    ``CampaignCell.run`` does; returns its decoder gateway."""
    campaign = canonical_campaign("brownout-thrash")
    cell = CampaignCell(campaign, policy=policy, seed=11,
                        policy_kwargs=POLICY_KWARGS.get(policy, {}),
                        target=SERVING_TARGET)
    config = cell.config()
    testbed = build_testbed(config)
    arm_campaign(campaign, testbed, cell.seed)
    replace(SERVING_TARGET, seed=cell.seed).run(config, testbed)
    return testbed.gateways.decoder


def test_tcp_seq_brownout_thrash_tail_waits_on_a_backed_off_resync():
    """TCP-seq's p99 tail under ``brownout-thrash`` (EXPERIMENTS.md
    "§IV-C serving under chaos"): the watchdog trips inside the control
    blackout, the backed-off ``cache_resync`` gets through only after
    it, and until then the decoder drops every region-bearing packet.
    Cache Flush's encoder flushes on a retransmission, so its watchdog
    never trips."""
    tcp_seq = brownout_thrash_decoder("tcp_seq")
    cache_flush = brownout_thrash_decoder("cache_flush")
    assert tcp_seq.stats.desync_dropped >= \
        20 * cache_flush.stats.desync_dropped > 0
    assert tcp_seq.resilience.stats.watchdog_trips >= 1
    assert cache_flush.resilience.stats.watchdog_trips == 0
    drops = [event["time"] for event in tcp_seq.recorder.dump()
             if event["source"] == tcp_seq.name
             and event["event"] == "drop_desync"]
    assert max(drops) > 2.0  # the blackout phase ends at 2.0 s


#: sha256 of each canonical smoke campaign's scorecard (sorted-key JSON),
#: recorded before the campaign cells moved onto ``run_sweep``.
#: ``dup-reorder-storm`` was re-read when every link crossing became one
#: event: only its ``link_transit`` span time moved.  A duplicate shares
#: its original's packet id, and the two-event crossing closed the
#: duplicate's span, opened meanwhile, when the original was lost at its
#: end of serialisation; each packet now closes its own.
SCORECARD_DIGESTS = {
    "handover-storm":
        "74a4fd3ae1ec08c51ac797d31956eba0a19fedc14960c483bc14554285b69c0e",
    "flaky-backhaul":
        "e8afebc59535cc97af33a0ad2674f9c866e81c9cb95a600b0ab49aa8d11c9891",
    "cache-thrash":
        "8c3046fa445116a9a03e7f4861b64e274b946bc2016ce030a7a58e9f37d99bf0",
    "split-brain-resync":
        "151215d293a98a01e4284e1d4e4fca0012340b5518766f9e4854c84560b68a0d",
    "degraded-brownout":
        "d658c6c57852ac4e0003922e4e3fbe05a62e8a6624ace31c1b019cfbd756c6dc",
    "clock-drift":
        "efafb31cdc30046d005e42ff3ac52f80b9bcda5f0c7bc3639bc11e69078c0ae3",
    "dup-reorder-storm":
        "864404d904913406167c1db9474c0b64864f25164f7d355f41d9a4a5f396fd7b",
    "brownout-thrash":
        "7814716457c21aed7e337f58ddce5cf552f76e5cbc38c48e682fce92c8d99938",
}


@pytest.mark.parametrize("name", sorted(SCORECARD_DIGESTS))
def test_smoke_scorecard_digest_is_pinned(name):
    """Every canonical smoke scorecard is byte-identical to its pinned
    digest: the transfer target's numbers do not move."""
    doc = run_campaign(canonical_campaign(name)).to_dict()
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == SCORECARD_DIGESTS[name]


def _campaign_dispatch(name):
    """One ``tcp_seq`` cell of smoke campaign ``name`` at its first seed:
    its dispatch log and what its faults did."""
    from repro.chaos.runner import _fault_digest
    from repro.experiments import runner
    from repro.workload.corpus import corpus_object
    from tests.test_transfer_goldens import dispatch_log

    campaign = canonical_campaign(name)
    cell = CampaignCell(campaign, policy="tcp_seq",
                        policy_kwargs=POLICY_KWARGS.get("tcp_seq", {}),
                        seed=campaign.seeds[0])
    config = cell.config()
    testbed = runner.build_testbed(config)
    armed = arm_campaign(campaign, testbed, cell.seed)
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    log = dispatch_log(testbed.sim, lambda: runner.run_fetches(
        testbed, config, {runner.FILE_NAME: data}, [runner.Fetch()],
        capture_violation=True))
    return log, _fault_digest(armed)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_smoke_campaign_dispatches_the_two_event_log_less_transmitted(
        name, monkeypatch):
    """Under every smoke campaign's flaps, loss windows and bursts the
    one-event crossing dispatches what the two-event reference link
    (``tests/reference_sim.Link``, which draws at the end of
    serialisation) dispatches, once its ``Link._transmitted`` entries
    are dropped, and its faults fire alike."""
    from repro.experiments import runner
    from tests import reference_sim

    one_event, faults = _campaign_dispatch(name)
    monkeypatch.setattr(runner, "Link", reference_sim.Link)
    two_event, reference_faults = _campaign_dispatch(name)
    transmitted = [entry for entry in two_event
                   if entry[1] == "Link._transmitted"]
    assert [entry for entry in two_event
            if entry[1] != "Link._transmitted"] == one_event
    assert transmitted and faults == reference_faults
