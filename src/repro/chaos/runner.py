"""Campaign execution, scorecard assembly, validation and replay.

One campaign *cell* (:class:`CampaignCell`) = (campaign, policy, seed)
on a target: the campaign's own transfer, or a ``ServingSpec``'s
shared-cache testbed, with the phases armed as scheduled faults.  A
campaign is one :func:`~repro.experiments.sweep.run_sweep` whose
paired no-DRE twins run under the same link-level faults.  Every
number in the ``repro.chaos/v1`` scorecard is a pure function of the
campaign spec and target — no wall clock, no process-global
randomness — so ``replay_report`` checks byte-for-byte by re-running.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from ..experiments.config import ExperimentConfig
from ..experiments.runner import (FILE_NAME, Fetch, Path, build_testbed,
                                  collect_result, run_fetches)
from ..experiments.sweep import CellResult, SweepSpec, run_sweep
from ..metrics.report import format_table
from ..metrics.series import percentile
from ..metrics.spans import spans_rollup
from ..sim.faults import ArmedFaults, arm_injection
from ..sim.rng import RngRegistry
from ..verify.oracles import InvariantViolation
from ..workload.corpus import corpus_object
from .campaign import CHAOS_POLICIES, CHAOS_SCHEMA, POLICY_KWARGS, Campaign
from .slo import (ORACLES, SERVING_ORACLES, _round, evaluate_serving_slos,
                  evaluate_slos, phase_recovery_times)


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
# one campaign cell (a run_sweep spec)
# ---------------------------------------------------------------------------

@dataclass
class CampaignCell:
    """One (campaign, policy, seed) cell: a :class:`SweepSpec` base.

    ``policy=None`` is the no-DRE twin ``run_sweep`` pairs each cell
    with.  ``target=None`` runs the campaign's own transfer; a
    ``ServingSpec`` target runs that population on its shared-cache
    testbed instead (the spec brings its runner from the layer above).
    """

    campaign: Campaign
    policy: Optional[str] = None
    seed: int = 11
    policy_kwargs: Dict[str, Any] = field(default_factory=dict)
    resilience: bool = True
    target: Any = None

    def config(self) -> ExperimentConfig:
        """The run's configuration, with resilience and the harness on
        (both inert on the no-DRE twin: it has no gateways).  A transfer
        runs the campaign's scenario with telemetry, which the SLO
        oracles read, and sampled tracing, so a failed record carries
        trace ids that replay to a causal chain."""
        base = (self.target.experiment_config() if self.target is not None
                else ExperimentConfig(telemetry=True, spans=True, spans_kwargs={
                    "trace_sample": 16, "max_spans": 4000},
                    **self.campaign.scenario))
        return base.with_updates(
            policy=self.policy, policy_kwargs=dict(self.policy_kwargs),
            seed=self.seed, resilience=self.resilience, verify=True)

    def run(self) -> Dict[str, Any]:
        """Run the cell: its result (a :class:`TransferResult`, or the
        target's ``serving/v1`` report, ``None`` past a violation), its
        first invariant violation and the faults that fired."""
        config = self.config()
        testbed = build_testbed(config)
        armed = arm_campaign(self.campaign, testbed, self.seed)
        if self.target is None:
            data = corpus_object(config.corpus, config.file_size,
                                 config.corpus_seed)
            run = run_fetches(testbed, config, {FILE_NAME: data}, [Fetch()],
                              capture_violation=True)
            # The partial result of a violated run still carries stats.
            result = collect_result(testbed, run.outcomes[0], config)
            violation = run.violation
        else:
            target = replace(self.target, seed=self.seed)
            try:
                result, violation = target.run(config, testbed), None
            except InvariantViolation as caught:
                result, violation = None, caught
        record = None if violation is None else violation.summary()
        return {"result": result, "faults": _fault_digest(armed),
                "violation": record and {
                    "oracle": record["oracle"], "message": record["message"],
                    "trace": record["context"].get("trace_id"),
                    "span": record["context"].get("span_id")}}


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
    #: The ServingSpec the cells ran at their own policy and seed (None:
    #: the campaign's transfer).
    target: Any = None

    @property
    def passed(self) -> bool:
        return bool(self.summary["passed"])

    def to_dict(self) -> Dict[str, Any]:
        doc = {"schema": CHAOS_SCHEMA,
               "campaign": self.campaign.to_dict(),
               "policies": list(self.policies),
               "resilience": self.resilience,
               "runs": self.runs,
               "summary": self.summary}
        if self.target is not None:
            doc["target"] = asdict(self.target)
        return doc


def run_campaign(campaign: Campaign,
                 policies: Tuple[str, ...] = CHAOS_POLICIES,
                 resilience: bool = True,
                 workers: Optional[int] = None,
                 target: Any = None) -> CampaignReport:
    """Execute ``campaign`` for every (policy, seed) cell on ``target``.

    Each cell's no-DRE twin runs under the same link-level faults; the
    goodput-floor oracle and the serving p99 compare against it.  A
    run passes when all its SLO oracles pass (:data:`ORACLES` on a
    transfer, :data:`SERVING_ORACLES` on a serving target); the
    campaign passes when every run does.
    """
    swept = run_sweep(SweepSpec(
        base=CampaignCell(campaign, resilience=resilience, target=target),
        grid={"seed": campaign.seeds,
              "policy,policy_kwargs": [(policy, POLICY_KWARGS.get(policy, {}))
                                       for policy in policies]},
        paired_baseline=True), workers=workers)
    serving = target is not None
    runs = [_run_record(campaign, cell, serving) for cell in swept]
    return CampaignReport(campaign=campaign, policies=tuple(policies),
                          resilience=resilience, runs=runs, target=target,
                          summary=_summarise(runs, SERVING_ORACLES if serving
                                             else ORACLES))


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


def _run_record(campaign: Campaign, cell: CellResult,
                serving: bool) -> Dict[str, Any]:
    output = cell.result
    result, baseline = output["result"], cell.baseline["result"]
    violation = output["violation"]
    record = {"policy": cell.params["policy"], "seed": cell.seed,
              "faults": output["faults"], "violation": violation}
    if serving:
        # Steady p99 and hit ratio beside the twin's: reported, not gated.
        slos = evaluate_serving_slos(result, violation)
        record.update(mttrs=[], metrics=result and _steady(result),
                      baseline=_steady(baseline))
    else:
        mttrs: List[Optional[float]] = []
        if result.telemetry is not None:
            mttrs = phase_recovery_times(
                result.telemetry,
                [phase.end for phase in campaign.phases if phase.injections])
        slos = evaluate_slos(campaign, result, baseline, mttrs, violation)
        record.update(
            mttrs=[_round(m) for m in mttrs],
            metrics={
                "completed": result.completed,
                "download_time": _round(result.download_time),
                "bytes_on_link": result.bytes_on_link,
                "undecodable_drops": result.undecodable_drops,
                "resyncs_completed": result.resyncs_completed,
                "watchdog_trips": result.watchdog_trips,
                "degraded_packets": result.degraded_packets,
                "retransmissions": result.server_retransmissions,
            },
            baseline={"completed": baseline.completed,
                      "download_time": _round(baseline.download_time)},
            spans=(spans_rollup(result.spans)
                   if result.spans is not None else None),
            trace_hints=([] if all(s.passed for s in slos)
                         else _trace_hints(result.spans)))
    record.update(passed=all(s.passed for s in slos),
                  slos=[s.to_dict() for s in slos])
    return record


def _steady(report: Dict[str, Any]) -> Dict[str, Any]:
    return {key: report[key]
            for key in ("requests", "steady", "overall", "sim_time")}


def _summarise(runs: List[Dict[str, Any]],
               oracles: Tuple[str, ...]) -> Dict[str, Any]:
    failures = {oracle: 0 for oracle in oracles}
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
        expected = SERVING_ORACLES if "target" in doc else ORACLES
        if oracles != list(expected):
            raise ValueError(f"{where}: oracle set {oracles} != {expected}")
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
                  workers: Optional[int] = None,
                  target: Any = None) -> Tuple[CampaignReport, bool]:
    """Re-run the campaign recorded in ``doc`` and compare scorecards.

    The spec is fully seeded and the report contains no wall-clock
    state, so a faithful replay reproduces the document byte-for-byte
    (after JSON normalisation).  ``target`` is the ``ServingSpec``
    built from ``doc["target"]`` (this layer cannot build one); a
    target that differs from the recorded one cannot match.  Returns
    ``(fresh_report, matches)``.
    """
    validate_chaos_report(doc)
    campaign = Campaign.from_dict(doc["campaign"])
    report = run_campaign(campaign, policies=tuple(doc["policies"]),
                          resilience=bool(doc["resilience"]),
                          workers=workers, target=target)
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
    "completion": "completion",
}


def _mark(slo: Dict[str, Any]) -> str:
    base = "ok" if slo["passed"] else "FAIL"
    if slo.get("value") is not None:
        return f"{base} {slo['value']:.2f}"
    return base


def format_scorecard(report: CampaignReport) -> str:
    """The resilience scorecard table for one campaign report."""
    campaign, serving = report.campaign, report.target is not None
    oracles = SERVING_ORACLES if serving else ORACLES
    headers = (["policy", "seed", "verdict"]
               + [_ORACLE_HEADERS[oracle] for oracle in oracles]
               + (["p99 s", "twin p99 s", "hit"] if serving else []))
    rows = []
    for run in report.runs:
        by_name = {slo["oracle"]: slo for slo in run["slos"]}
        rows.append([run["policy"], run["seed"],
                     "PASS" if run["passed"] else "FAIL"]
                    + [_mark(by_name[oracle]) for oracle in oracles])
        if serving:
            steady = (run["metrics"] or {}).get("steady", {})
            rows[-1] += [steady.get("p99_download_s"),
                         run["baseline"]["steady"]["p99_download_s"],
                         steady.get("hit_ratio")]
    title = (f"chaos campaign {campaign.name!r} ({campaign.scale}"
             f"{', serving' if serving else ''}): {campaign.description}")
    lines = [format_table(title, headers, rows)]
    summary = report.summary
    mttr = summary["mttr"]
    if mttr["max"] is not None:
        lines.append(
            f"MTTR p50={mttr['p50']:.2f}s p90={mttr['p90']:.2f}s "
            f"max={mttr['max']:.2f}s")
    elif not serving:
        lines.append("MTTR: no recovery windows measured")
    verdict = "PASS" if summary["passed"] else "FAIL"
    lines.append(f"campaign verdict: {verdict} "
                 f"({summary['runs'] - summary['failed_runs']}/"
                 f"{summary['runs']} runs passed)")
    return "\n".join(lines)
