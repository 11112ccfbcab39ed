"""Campaign execution, scorecard assembly, validation and replay.

One campaign *cell* = (campaign, policy, seed): a full simulated
transfer with the campaign's phases armed as scheduled faults, plus a
no-DRE baseline per seed under the same link-level faults.  Cells ride
the sweep engine's :func:`~repro.experiments.sweep.parallel_map`, and
every number in the resulting ``repro.chaos/v1`` scorecard is a pure
function of the campaign spec — no wall clock, no process-global
randomness — so ``replay_report`` can check byte-for-byte equality by
simply re-running.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..experiments.runner import (FILE_NAME, Fetch, Path, build_testbed,
                                  collect_result, run_fetches)
from ..experiments.sweep import parallel_map
from ..metrics.collectors import TransferResult
from ..metrics.report import format_table
from ..metrics.series import percentile
from ..metrics.spans import spans_rollup
from ..sim.faults import ArmedFaults, arm_injection
from ..sim.rng import RngRegistry
from ..workload.corpus import corpus_object
from .campaign import CHAOS_POLICIES, CHAOS_SCHEMA, Campaign
from .slo import ORACLES, _round, evaluate_slos, phase_recovery_times


# ---------------------------------------------------------------------------
# arming a campaign onto a testbed
# ---------------------------------------------------------------------------

def arm_campaign(campaign: Campaign, testbed: Path,
                 seed: int) -> ArmedFaults:
    """Arm every phase injection of ``campaign`` onto ``testbed``.

    Each injection goes through the :mod:`repro.sim.faults` table with
    the window set to its phase; gateway-side injections are skipped
    when the testbed has no gateways (the no-DRE baseline).  All
    randomness flows through named streams of a registry forked from
    ``seed``, so the fault pattern is identical across the DRE run and
    its baseline and across replays.
    """
    rng = RngRegistry(seed).fork("chaos")
    armed = ArmedFaults()
    for phase in campaign.phases:
        for index, injection in enumerate(phase.injections):
            arm_injection(testbed, injection, (phase.start, phase.end),
                          rng.stream(f"ge:{phase.name}:{index}"), armed)
    return armed


def _fault_digest(armed: ArmedFaults) -> Dict[str, Any]:
    """JSON-safe summary of what actually fired (deterministic)."""
    link = {"dropped": 0, "reordered": 0, "duplicated": 0}
    for injector in armed.injectors.values():
        link["dropped"] += len(injector.log.dropped)
        link["reordered"] += len(injector.log.reordered)
        link["duplicated"] += len(injector.log.duplicated)
    log = armed.gateway_log
    return {
        "link": link,
        "bursty_losses": sum(m.losses for m in armed.bursty_models),
        "crashes": [_round(t) for t in log.crashes],
        "restarts": [_round(t) for t in log.restarts],
        "evictions": sum(n for _, n in log.evictions),
        "pressure_evictions": sum(n for _, n in log.pressure),
        "skew_changes": len(log.skews),
    }


# ---------------------------------------------------------------------------
# one campaign cell (module-level: must pickle for parallel_map)
# ---------------------------------------------------------------------------

def _run_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one (campaign, policy, seed) cell.

    Returns the cell's :class:`TransferResult`, its first invariant
    violation (or ``None``) and the digest of the faults that fired.
    """
    campaign = Campaign.from_dict(payload["campaign"])
    config = campaign.config(payload["policy"], payload["seed"],
                             resilience=payload["resilience"])
    # Sampled causal tracing in every cell: a failed SLO record then
    # carries trace ids that replay back to a concrete causal chain.
    # The rollup folded into the scorecard excludes wall times, so
    # replay_report's byte-for-byte comparison still holds.
    config.spans = True
    config.spans_kwargs = {"trace_sample": 16, "max_spans": 4000}
    testbed = build_testbed(config)
    armed = arm_campaign(campaign, testbed, payload["seed"])

    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    run = run_fetches(testbed, config, {FILE_NAME: data}, [Fetch()],
                      capture_violation=True)
    violation: Optional[Dict[str, Any]] = None
    if run.violation is not None:
        # The run is over at the first violated invariant; the partial
        # result still carries stats and telemetry for the scorecard.
        summary = run.violation.summary()
        violation = {"oracle": summary["oracle"],
                     "message": summary["message"],
                     "trace": summary["context"].get("trace_id"),
                     "span": summary["context"].get("span_id")}

    result = collect_result(testbed, run.outcomes[0], config)
    return {"result": result, "violation": violation,
            "faults": _fault_digest(armed)}


# ---------------------------------------------------------------------------
# the campaign report
# ---------------------------------------------------------------------------

@dataclass
class CampaignReport:
    """Scorecard for one campaign execution (``repro.chaos/v1``)."""

    campaign: Campaign
    policies: Tuple[str, ...]
    resilience: bool
    runs: List[Dict[str, Any]]
    summary: Dict[str, Any]

    @property
    def passed(self) -> bool:
        return bool(self.summary["passed"])

    def to_dict(self) -> Dict[str, Any]:
        return {"schema": CHAOS_SCHEMA,
                "campaign": self.campaign.to_dict(),
                "policies": list(self.policies),
                "resilience": self.resilience,
                "runs": self.runs,
                "summary": self.summary}


def run_campaign(campaign: Campaign,
                 policies: Tuple[str, ...] = CHAOS_POLICIES,
                 resilience: bool = True,
                 workers: Optional[int] = None) -> CampaignReport:
    """Execute ``campaign`` for every (policy, seed) cell.

    Each seed also gets one no-DRE baseline cell under the same
    link-level faults; the goodput-floor oracle compares against it.
    A run passes when all five SLO oracles pass; the campaign passes
    when every run does.
    """
    spec = campaign.to_dict()
    payloads: List[Dict[str, Any]] = []
    for seed in campaign.seeds:
        payloads.append({"campaign": spec, "policy": None, "seed": seed,
                         "resilience": False})
        for policy in policies:
            payloads.append({"campaign": spec, "policy": policy,
                             "seed": seed, "resilience": resilience})
    outputs = parallel_map(_run_cell, payloads, workers=workers)

    baselines: Dict[int, TransferResult] = {}
    for payload, output in zip(payloads, outputs):
        if payload["policy"] is None:
            baselines[payload["seed"]] = output["result"]

    fault_phase_ends = [phase.end for phase in campaign.phases
                       if phase.injections]
    runs: List[Dict[str, Any]] = []
    for payload, output in zip(payloads, outputs):
        if payload["policy"] is None:
            continue
        result = output["result"]
        mttrs: List[Optional[float]] = []
        if result.telemetry is not None:
            mttrs = phase_recovery_times(result.telemetry, fault_phase_ends)
        baseline = baselines.get(payload["seed"])
        slos = evaluate_slos(campaign, result, baseline, mttrs,
                             output["violation"])
        runs.append(_run_record(payload, result, baseline, slos, mttrs,
                                output))

    return CampaignReport(campaign=campaign, policies=tuple(policies),
                          resilience=resilience, runs=runs,
                          summary=_summarise(runs))


def _trace_hints(doc: Optional[Dict[str, Any]],
                 limit: int = 5) -> List[int]:
    """Trace ids worth replaying for a failed cell (deterministic).

    Picks the first traces containing a watchdog trip, an abandoned
    resync, or an undecodable drop — the spans a §IV post-mortem
    starts from (``repro spans <trace-id>`` on the cell's config).
    """
    if doc is None:
        return []
    hints: List[int] = []
    seen = set()
    for span in doc["spans"]:
        name = span["name"]
        tags = span.get("tags", {})
        interesting = (
            name == "watchdog_trip"
            or (name == "decode" and tags.get("status") == "missing")
            or (name == "resync" and tags.get("outcome") == "gave_up"))
        if interesting and span["trace"] not in seen:
            seen.add(span["trace"])
            hints.append(span["trace"])
            if len(hints) >= limit:
                break
    return hints


def _run_record(payload, result: TransferResult,
                baseline: Optional[TransferResult], slos, mttrs,
                output) -> Dict[str, Any]:
    passed = all(s.passed for s in slos)
    return {
        "policy": payload["policy"],
        "seed": payload["seed"],
        "passed": passed,
        "slos": [s.to_dict() for s in slos],
        "mttrs": [_round(m) for m in mttrs],
        "metrics": {
            "completed": result.completed,
            "download_time": _round(result.download_time),
            "bytes_on_link": result.bytes_on_link,
            "undecodable_drops": result.undecodable_drops,
            "resyncs_completed": result.resyncs_completed,
            "watchdog_trips": result.watchdog_trips,
            "degraded_packets": result.degraded_packets,
            "retransmissions": result.server_retransmissions,
        },
        "baseline": {
            "completed": baseline.completed if baseline else None,
            "download_time": (_round(baseline.download_time)
                              if baseline else None),
        },
        "faults": output["faults"],
        "violation": output["violation"],
        "spans": (spans_rollup(result.spans)
                  if result.spans is not None else None),
        "trace_hints": ([] if passed else _trace_hints(result.spans)),
    }


def _summarise(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    failures = {oracle: 0 for oracle in ORACLES}
    for run in runs:
        for slo in run["slos"]:
            if not slo["passed"]:
                failures[slo["oracle"]] += 1
    mttr_values = [m for run in runs for m in run["mttrs"] if m is not None]
    return {
        "passed": bool(runs) and all(run["passed"] for run in runs),
        "runs": len(runs),
        "failed_runs": sum(1 for run in runs if not run["passed"]),
        "oracle_failures": failures,
        "mttr": {
            "p50": _round(percentile(mttr_values, 0.5)),
            "p90": _round(percentile(mttr_values, 0.9)),
            "max": _round(max(mttr_values) if mttr_values else None),
        },
    }


# ---------------------------------------------------------------------------
# validation and replay
# ---------------------------------------------------------------------------

def validate_chaos_report(doc: Dict[str, Any]) -> None:
    """Structural validation of a ``repro.chaos/v1`` document.

    Raises ``ValueError`` on the first problem; CI runs this over every
    scorecard the chaos-smoke job emits.
    """
    if not isinstance(doc, dict):
        raise ValueError("chaos report must be a JSON object")
    if doc.get("schema") != CHAOS_SCHEMA:
        raise ValueError(
            f"schema mismatch: {doc.get('schema')!r} != {CHAOS_SCHEMA!r}")
    for key in ("campaign", "policies", "resilience", "runs", "summary"):
        if key not in doc:
            raise ValueError(f"missing top-level key {key!r}")
    Campaign.from_dict(doc["campaign"])      # raises on a malformed spec
    if not isinstance(doc["runs"], list) or not doc["runs"]:
        raise ValueError("runs must be a non-empty list")
    for position, run in enumerate(doc["runs"]):
        where = f"runs[{position}]"
        for key in ("policy", "seed", "passed", "slos", "metrics"):
            if key not in run:
                raise ValueError(f"{where}: missing {key!r}")
        oracles = [slo.get("oracle") for slo in run["slos"]]
        if oracles != list(ORACLES):
            raise ValueError(f"{where}: oracle set {oracles} != {ORACLES}")
        if run["passed"] != all(slo["passed"] for slo in run["slos"]):
            raise ValueError(f"{where}: passed flag disagrees with slos")
    summary = doc["summary"]
    failed = sum(1 for run in doc["runs"] if not run["passed"])
    if summary.get("failed_runs") != failed:
        raise ValueError(
            f"summary.failed_runs {summary.get('failed_runs')} != {failed}")
    if summary.get("passed") != (failed == 0):
        raise ValueError("summary.passed disagrees with per-run verdicts")


def replay_report(doc: Dict[str, Any],
                  workers: Optional[int] = None
                  ) -> Tuple[CampaignReport, bool]:
    """Re-run the campaign recorded in ``doc`` and compare scorecards.

    The spec is fully seeded and the report contains no wall-clock
    state, so a faithful replay reproduces the document byte-for-byte
    (after JSON normalisation).  Returns ``(fresh_report, matches)``.
    """
    validate_chaos_report(doc)
    campaign = Campaign.from_dict(doc["campaign"])
    report = run_campaign(campaign, policies=tuple(doc["policies"]),
                          resilience=bool(doc["resilience"]),
                          workers=workers)
    fresh = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    recorded = json.loads(json.dumps(doc, sort_keys=True))
    return report, fresh == recorded


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_ORACLE_HEADERS = {
    "byte_integrity": "integrity",
    "goodput_floor": "goodput",
    "undecodable_rate": "undecodable",
    "mttr_ceiling": "mttr",
    "no_permanent_degradation": "end_state",
}


def _mark(slo: Dict[str, Any]) -> str:
    base = "ok" if slo["passed"] else "FAIL"
    if slo.get("value") is not None:
        return f"{base} {slo['value']:.2f}"
    return base


def format_scorecard(report: CampaignReport) -> str:
    """The resilience scorecard table for one campaign report."""
    campaign = report.campaign
    headers = (["policy", "seed", "verdict"]
               + [_ORACLE_HEADERS[oracle] for oracle in ORACLES])
    rows = []
    for run in report.runs:
        by_name = {slo["oracle"]: slo for slo in run["slos"]}
        rows.append([run["policy"], run["seed"],
                     "PASS" if run["passed"] else "FAIL"]
                    + [_mark(by_name[oracle]) for oracle in ORACLES])
    title = (f"chaos campaign {campaign.name!r} ({campaign.scale}): "
             f"{campaign.description}")
    lines = [format_table(title, headers, rows)]
    summary = report.summary
    mttr = summary["mttr"]
    if mttr["max"] is not None:
        lines.append(
            f"MTTR p50={mttr['p50']:.2f}s p90={mttr['p90']:.2f}s "
            f"max={mttr['max']:.2f}s")
    else:
        lines.append("MTTR: no recovery windows measured")
    verdict = "PASS" if summary["passed"] else "FAIL"
    lines.append(f"campaign verdict: {verdict} "
                 f"({summary['runs'] - summary['failed_runs']}/"
                 f"{summary['runs']} runs passed)")
    return "\n".join(lines)
