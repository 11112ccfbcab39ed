"""Scenario fuzzer: random configs + scripted faults, oracles armed.

``repro fuzz`` generates random experiment configurations (policy,
workload, impairment rates) and random :mod:`repro.sim.faults` scripts
(targeted drops, corruptions, delays, control-plane loss, gateway
restarts, asymmetric evictions), runs each with the verification
oracles armed, and reports any :class:`InvariantViolation`.

When a violation is found, :func:`shrink` minimises the case — dropping
fault events one at a time, halving the object, zeroing impairment
rates — while the violation still reproduces, and the result is written
as a self-contained JSON file replayable with ``repro fuzz --replay``.

All randomness flows through named :class:`~repro.sim.rng.RngRegistry`
streams derived from the root seed: case *i* of seed *s* is the same
scenario on every machine, and no module-level ``random`` state is ever
touched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from ..experiments.config import ExperimentConfig
from ..experiments.runner import FILE_NAME, Fetch, build_testbed, run_fetches
from ..sim.faults import ArmedFaults, arm_injection, check_injection
from ..sim.rng import RngRegistry
from ..workload.corpus import corpus_object

FUZZ_SCHEMA = "repro.fuzzcase/v1"

#: Policies the fuzzer draws from — the paper's three robust schemes,
#: i.e. the ones whose emission-time safety the oracles can check.
FUZZ_POLICIES = ("cache_flush", "tcp_seq", "k_distance")

#: Deliberate bug injections for exercising the fuzzer itself: each
#: disables one policy's safety gate, so the matching oracle must trip.
BUG_INJECTIONS = ("tcp_seq_gate", "cache_flush_gate", "k_distance_gate")

_BUG_POLICY = {"tcp_seq_gate": "tcp_seq",
               "cache_flush_gate": "cache_flush",
               "k_distance_gate": "k_distance"}

MSS = 1460

#: Executions one :func:`shrink` may spend before it stops.
SHRINK_MAX_RUNS = 200


@dataclass
class FuzzCase:
    """One self-contained fuzz scenario (JSON round-trippable)."""

    seed: int
    policy: str = "cache_flush"
    policy_kwargs: Dict[str, Any] = field(default_factory=dict)
    corpus: str = "file1"
    file_size: int = 30 * MSS
    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    reorder_rate: float = 0.0
    resilience: bool = False
    #: Scripted fault events, each a dict with a ``kind`` tag from the
    #: vocabulary :func:`repro.sim.faults.arm_injection` lists.
    fault_events: List[Dict[str, Any]] = field(default_factory=list)
    #: Name from :data:`BUG_INJECTIONS`, or None for a clean run.
    inject_bug: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed, "policy": self.policy,
                "policy_kwargs": dict(self.policy_kwargs),
                "corpus": self.corpus, "file_size": self.file_size,
                "loss_rate": self.loss_rate,
                "corrupt_rate": self.corrupt_rate,
                "reorder_rate": self.reorder_rate,
                "resilience": self.resilience,
                "fault_events": [dict(e) for e in self.fault_events],
                "inject_bug": self.inject_bug}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FuzzCase":
        return cls(**payload)

    def to_config(self) -> ExperimentConfig:
        """Experiment config with oracles armed and bounded stalls.

        The TCP tunables keep a genuine stall short (a handful of
        capped retries) so a fuzz iteration never takes the paper-scale
        600 s to report, while still giving the bounded undecodable
        chains of k-distance room to ride out.
        """
        return ExperimentConfig(
            policy=self.policy, policy_kwargs=dict(self.policy_kwargs),
            corpus=self.corpus, file_size=self.file_size,
            loss_rate=self.loss_rate, corrupt_rate=self.corrupt_rate,
            reorder_rate=self.reorder_rate, resilience=self.resilience,
            seed=self.seed, verify=True,
            time_limit=60.0, tcp_max_retries=6,
            tcp_min_rto=0.05, tcp_max_rto=1.0)


@dataclass
class FuzzOutcome:
    """What one fuzz run observed."""

    completed: bool
    stalled: bool
    sim_time: float
    faults_applied: int
    violation: Optional[Dict[str, Any]] = None   # InvariantViolation.summary()


# -- case generation --------------------------------------------------------


def generate_case(root_seed: int, index: int,
                  inject_bug: Optional[str] = None) -> FuzzCase:
    """Deterministically generate case ``index`` of ``root_seed``."""
    rng = RngRegistry(root_seed).stream(f"case.{index}")
    if inject_bug is not None:
        policy = _BUG_POLICY[inject_bug]
    else:
        policy = rng.choice(FUZZ_POLICIES)
    policy_kwargs: Dict[str, Any] = {}
    if policy == "k_distance":
        policy_kwargs["k"] = rng.choice([2, 4, 8, 16])

    file_size = rng.randrange(5, 60) * MSS
    resilience = rng.random() < 0.3
    case = FuzzCase(
        seed=rng.randrange(1 << 31),
        policy=policy, policy_kwargs=policy_kwargs,
        corpus=rng.choice(["file1", "file2"]),
        file_size=file_size,
        loss_rate=rng.choice([0.0, 0.01, 0.02, 0.05, 0.1]),
        corrupt_rate=rng.choice([0.0, 0.0, 0.01]),
        reorder_rate=rng.choice([0.0, 0.0, 0.02]),
        resilience=resilience,
        inject_bug=inject_bug)

    segments = max(1, file_size // MSS)
    events: List[Dict[str, Any]] = []
    for _ in range(rng.randrange(0, 6)):
        kind = rng.choice(["drop_data", "drop_data", "corrupt_data",
                           "delay_data", "drop_control", "restart", "evict"])
        if kind == "drop_data":
            events.append({"kind": "drop_data",
                           "nth": rng.randrange(1, 3 * segments)})
        elif kind == "corrupt_data":
            events.append({"kind": "corrupt_data",
                           "nth": rng.randrange(1, 3 * segments)})
        elif kind == "delay_data":
            events.append({"kind": "delay_data",
                           "nth": rng.randrange(1, 3 * segments),
                           "delay": rng.choice([0.01, 0.05, 0.2])})
        elif kind == "drop_control" and resilience:
            events.append({"kind": "drop_control",
                           "ctrl": rng.choice(["heartbeat", "heartbeat_ack",
                                               "cache_resync",
                                               "cache_resync_ack"]),
                           "nth": rng.randrange(1, 4)})
        elif kind == "restart" and resilience:
            # Only with resilience armed: a cold restart without the
            # recovery layer is a designed-in stall, not a bug.
            events.append({"kind": "restart",
                           "side": rng.choice(["encoder", "decoder"]),
                           "offset": round(rng.uniform(0.05, 2.0), 3),
                           "downtime": rng.choice([0.0, 0.05, 0.2])})
        elif kind == "evict":
            events.append({"kind": "evict",
                           "side": rng.choice(["encoder", "decoder"]),
                           "offset": round(rng.uniform(0.05, 2.0), 3),
                           "fraction": rng.choice([0.25, 0.5, 1.0])})
    case.fault_events = events
    return case


# -- execution --------------------------------------------------------------


def _inject_bug(testbed, name: str) -> None:
    """Disable one policy's safety gate (instance-level monkey-patch)."""
    policy = testbed.gateways.encoder.encoder.policy
    if name == "tcp_seq_gate":
        # Drop the Fig. 7 line-B.7 guard: any cache hit is eligible,
        # including the segment's own cached copy.
        policy.entry_eligible = lambda entry, meta: True
    elif name == "cache_flush_gate":
        # Never flush on retransmission.
        policy.before_packet = lambda meta, cache: None
    elif name == "k_distance_gate":
        # Keep the same-flow restriction but lose the group window.
        policy.entry_eligible = (
            lambda entry, meta: entry.flow == meta.flow
            and entry.tcp_seq is not None and meta.tcp_seq is not None)
    else:
        raise ValueError(f"unknown bug injection {name!r}")


def run_case(case: FuzzCase) -> FuzzOutcome:
    """Execute one case with oracles armed; violations are captured."""
    config = case.to_config()
    testbed = build_testbed(config)
    rng = RngRegistry(case.seed).fork("faults")
    armed = ArmedFaults()
    faults_applied = sum(
        arm_injection(testbed, event, (0.0, config.time_limit),
                      rng.stream(f"event:{index}"), armed)
        for index, event in enumerate(case.fault_events))
    if case.inject_bug is not None:
        _inject_bug(testbed, case.inject_bug)

    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    run = run_fetches(testbed, config, {FILE_NAME: data}, [Fetch()],
                      capture_violation=True)
    outcome = run.outcomes[0]
    violated = run.violation is not None
    return FuzzOutcome(completed=outcome.completed and not violated,
                       stalled=outcome.stalled, sim_time=testbed.sim.now,
                       faults_applied=faults_applied,
                       violation=(run.violation.summary() if violated
                                  else None))


# -- shrinking --------------------------------------------------------------


def shrink(case: FuzzCase,
           reproduces: Optional[Callable[[FuzzCase], bool]] = None
           ) -> FuzzCase:
    """Minimise ``case`` while the violation still reproduces.

    Greedy passes, repeated to fixpoint (bounded by
    :data:`SHRINK_MAX_RUNS` total executions): drop fault events one at
    a time, halve the object, zero out impairment rates, disarm
    resilience.  Each candidate that still reproduces becomes the new
    current case.
    """
    if reproduces is None:
        reproduces = lambda c: run_case(c).violation is not None

    runs = [0]

    def still_fails(candidate: FuzzCase) -> bool:
        if runs[0] >= SHRINK_MAX_RUNS:
            return False
        runs[0] += 1
        return reproduces(candidate)

    current = case
    progress = True
    while progress and runs[0] < SHRINK_MAX_RUNS:
        progress = False
        # 1. Drop fault events, one at a time.
        index = 0
        while index < len(current.fault_events):
            events = (current.fault_events[:index]
                      + current.fault_events[index + 1:])
            candidate = replace(current, fault_events=events)
            if still_fails(candidate):
                current = candidate
                progress = True
            else:
                index += 1
        # 2. Halve the object (floor: 5 segments).
        while current.file_size >= 10 * MSS:
            candidate = replace(current,
                                file_size=(current.file_size // (2 * MSS))
                                * MSS)
            if not still_fails(candidate):
                break
            current = candidate
            progress = True
        # 3. Zero impairment rates and resilience, one knob at a time.
        for knob, off in (("loss_rate", 0.0), ("corrupt_rate", 0.0),
                          ("reorder_rate", 0.0), ("resilience", False)):
            if getattr(current, knob) == off:
                continue
            candidate = replace(current, **{knob: off})
            if still_fails(candidate):
                current = candidate
                progress = True
    return current


# -- persistence / replay ---------------------------------------------------


def case_to_json(case: FuzzCase,
                 violation: Optional[Dict[str, Any]] = None) -> str:
    return json.dumps({"schema": FUZZ_SCHEMA, "case": case.to_dict(),
                       "violation": violation}, indent=2, sort_keys=True)


def case_from_json(text: str) -> FuzzCase:
    payload = json.loads(text)
    if payload.get("schema") != FUZZ_SCHEMA:
        raise ValueError(f"not a {FUZZ_SCHEMA} file "
                         f"(schema={payload.get('schema')!r})")
    case = FuzzCase.from_dict(payload["case"])
    for index, event in enumerate(case.fault_events):
        check_injection(event, f"fault_events[{index}]")
    return case


def replay(text: str) -> FuzzOutcome:
    """Re-run a saved case file; the caller compares against the
    recorded expectation (violation present or not)."""
    return run_case(case_from_json(text))


# -- campaign driver --------------------------------------------------------


@dataclass
class CampaignResult:
    """Summary of one ``repro fuzz`` campaign."""

    iterations: int
    violations: int
    first_violation_index: Optional[int] = None
    shrunk_case: Optional[FuzzCase] = None
    shrunk_violation: Optional[Dict[str, Any]] = None


def run_campaign(root_seed: int, iterations: int,
                 inject_bug: Optional[str] = None,
                 log: Optional[Callable[[str], None]] = None
                 ) -> CampaignResult:
    """Generate and run ``iterations`` cases from ``root_seed``.

    The campaign stops at the first violation (expected only under
    ``inject_bug``); the failing case is shrunk and returned for
    persistence.
    """
    for index in range(iterations):
        case = generate_case(root_seed, index, inject_bug=inject_bug)
        outcome = run_case(case)
        if outcome.violation is None:
            if log is not None and (index + 1) % 50 == 0:
                log(f"  {index + 1}/{iterations} cases, no violations")
            continue
        if log is not None:
            log(f"  case {index}: VIOLATION "
                f"[{outcome.violation['oracle']}] "
                f"{outcome.violation['message'][:100]}")
        shrunk = shrink(case)
        shrunk_violation = run_case(shrunk).violation
        if log is not None:
            log(f"  shrunk to {len(shrunk.fault_events)} fault "
                f"event(s), {shrunk.file_size // MSS} segments")
        return CampaignResult(iterations=iterations, violations=1,
                              first_violation_index=index,
                              shrunk_case=shrunk,
                              shrunk_violation=shrunk_violation)
    return CampaignResult(iterations=iterations, violations=0)
