"""Campaign/phase spec and the canonical campaign library.

A :class:`Campaign` is a fully declarative chaos scenario: a base
experiment configuration plus timed :class:`Phase` windows, each phase
composing several concurrent *injections*.  An injection is a dict
with a ``kind`` tag from the one vocabulary :mod:`repro.sim.faults`
implements (:func:`~repro.sim.faults.arm_injection` lists it), the
same one fuzz cases are written in; it is checked when its phase is
built and armed with the window set to the phase.  Campaigns are JSON
round-trippable and all randomness flows through named
:class:`~repro.sim.rng.RngRegistry` streams derived from the run seed,
so a failed campaign replays byte-for-byte from its scorecard.

Gateway-side injections are skipped automatically on the no-DRE
baseline run (there are no gateways to fault); link-level injections
apply to both, so the goodput-floor oracle compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..experiments.config import ExperimentConfig
from ..sim.faults import check_injection

CHAOS_SCHEMA = "repro.chaos/v1"

#: The paper's three robust §V policies — the default campaign matrix.
CHAOS_POLICIES = ("cache_flush", "tcp_seq", "k_distance")

#: Per-policy constructor kwargs used by campaign runs.
POLICY_KWARGS: Dict[str, Dict[str, Any]] = {"k_distance": {"k": 8}}

MSS = 1460


@dataclass
class Phase:
    """One timed window of concurrent injections."""

    name: str
    start: float
    duration: float
    injections: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"phase {self.name!r}: non-positive duration")
        if self.start < 0:
            raise ValueError(f"phase {self.name!r}: negative start")
        for injection in self.injections:
            check_injection(injection, f"phase {self.name!r}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "start": self.start,
                "duration": self.duration,
                "injections": [dict(i) for i in self.injections]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Phase":
        return cls(name=payload["name"], start=payload["start"],
                   duration=payload["duration"],
                   injections=[dict(i)
                               for i in payload.get("injections", [])])


@dataclass
class Campaign:
    """A declarative, seeded, replayable chaos scenario."""

    name: str
    description: str
    scale: str = "smoke"                      # "smoke" | "full"
    #: ExperimentConfig field overrides shared by every run of the
    #: campaign (workload, link shape, TCP tunables, time limit).
    scenario: Dict[str, Any] = field(default_factory=dict)
    phases: List[Phase] = field(default_factory=list)
    #: SLO thresholds consumed by repro.chaos.slo.evaluate_slos.
    slo: Dict[str, float] = field(default_factory=dict)
    seeds: Tuple[int, ...] = (11,)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"campaign {self.name!r} has no phases")
        ordered = sorted(self.phases, key=lambda p: p.start)
        if [p.name for p in ordered] != [p.name for p in self.phases]:
            raise ValueError(f"campaign {self.name!r}: phases out of order")
        if not self.seeds:
            raise ValueError(f"campaign {self.name!r} has no seeds")

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "description": self.description,
                "scale": self.scale, "scenario": dict(self.scenario),
                "phases": [phase.to_dict() for phase in self.phases],
                "slo": dict(self.slo), "seeds": list(self.seeds)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Campaign":
        return cls(name=payload["name"],
                   description=payload.get("description", ""),
                   scale=payload.get("scale", "smoke"),
                   scenario=dict(payload.get("scenario", {})),
                   phases=[Phase.from_dict(p) for p in payload["phases"]],
                   slo=dict(payload.get("slo", {})),
                   seeds=tuple(payload.get("seeds", (11,))))

    def config(self, policy, seed: int,
               resilience: bool = True) -> ExperimentConfig:
        """The experiment configuration for one campaign run.

        ``policy=None`` builds the no-DRE baseline (gateway faults are
        skipped at arming time).  Telemetry is always on — the SLO
        oracles are layered on the sampled gauge series — and the
        verification harness is armed whenever DRE is.
        """
        kwargs = dict(POLICY_KWARGS.get(policy or "", {}))
        dre = policy is not None
        return ExperimentConfig(
            policy=policy, policy_kwargs=kwargs, seed=seed,
            resilience=resilience and dre,
            telemetry=True, verify=dre,
            **self.scenario)


# ---------------------------------------------------------------------------
# canonical campaigns
# ---------------------------------------------------------------------------

def _base_scenario(scale: str) -> Dict[str, Any]:
    """The shared campaign testbed: a slowed bottleneck so sub-second
    resilience timescales (heartbeats at 0.25 s, resync at 0.25 s) fit
    inside the transfer, and bounded-RTO TCP so a genuine stall
    resolves in seconds rather than the paper-scale 600 s."""
    smoke = scale == "smoke"
    return {
        # Long-range redundancy (matches far behind the TCP window):
        # cache divergence costs until actively repaired, instead of
        # self-healing within one retransmission.
        "corpus": "longhaul",
        "file_size": (600 if smoke else 1400) * MSS,
        # Slow enough that the DRE-compressed transfer (~2x faster than
        # raw) still spans every phase window — a campaign whose faults
        # fire after the download finished proves nothing.
        "bandwidth": 250_000.0,
        "tcp_min_rto": 0.05,
        "tcp_max_rto": 1.0,
        "tcp_max_retries": 12,
        "time_limit": 30.0 if smoke else 60.0,
    }


def _seeds(scale: str) -> Tuple[int, ...]:
    return (11,) if scale == "smoke" else (11, 23)


def _unit(scale: str) -> float:
    """Phase time unit: campaigns are authored in units so the full
    scale stretches the same shape over the bigger object."""
    return 0.4 if scale == "smoke" else 0.8


_DEFAULT_SLO = {
    # Repaired runs land near or below the no-DRE baseline (~0.8-1.2x);
    # an unrepaired cache divergence on the longhaul corpus costs ~2.5x+
    # — the ceiling sits between the two regimes.
    "goodput_delay_ratio": 2.0,
    "max_undecodable_rate": 0.15,
    "mttr_ceiling": 3.0,
}


def _campaign(name: str, description: str, scale: str,
              phases: List[Phase], **slo_overrides: float) -> Campaign:
    slo = dict(_DEFAULT_SLO)
    slo.update(slo_overrides)
    return Campaign(name=name, description=description, scale=scale,
                    scenario=_base_scenario(scale), phases=phases,
                    slo=slo, seeds=_seeds(scale))


def handover_storm(scale: str = "smoke") -> Campaign:
    """Repeated short outages + loss bursts, and the handover lands the
    flow behind a cold decoder (a different box with an empty cache)."""
    u = _unit(scale)
    phases = [
        Phase("warmup", 0.0, 2 * u),
        Phase("storm", 2 * u, 3 * u, [
            {"kind": "link_flap", "link": "forward", "down_for": 0.3 * u,
             "flaps": 2, "period": 1.4 * u},
            {"kind": "bursty_loss", "link": "forward",
             "p_good_bad": 0.05, "p_bad_good": 0.3, "loss_bad": 0.5},
            {"kind": "reorder_data", "every": 7, "extra_delay": 0.05},
            {"kind": "restart", "side": "decoder", "offset": 0.7 * u,
             "downtime": 0.2 * u},
        ]),
        Phase("aftermath", 5 * u, 2 * u),
    ]
    return _campaign(
        "handover-storm",
        "link flaps + Gilbert-Elliott bursts + a cold-cache decoder "
        "handover mid-storm", scale, phases)


def flaky_backhaul(scale: str = "smoke") -> Campaign:
    """Sustained bursty loss with a control-plane brownout on top."""
    u = _unit(scale)
    phases = [
        Phase("warmup", 0.0, u),
        Phase("bursty", u, 4 * u, [
            {"kind": "bursty_loss", "link": "forward",
             "p_good_bad": 0.08, "p_bad_good": 0.35, "loss_bad": 0.5},
            {"kind": "bursty_loss", "link": "reverse",
             "p_good_bad": 0.03, "p_bad_good": 0.4, "loss_bad": 0.3},
        ]),
        Phase("settle", 5 * u, 2 * u),
    ]
    return _campaign(
        "flaky-backhaul",
        "sustained Gilbert-Elliott loss in both directions",
        scale, phases)


def cache_thrash(scale: str = "smoke") -> Campaign:
    """Memory pressure forces eviction storms against the byte-budget
    cap while one-sided eviction diverges the caches."""
    u = _unit(scale)
    phases = [
        Phase("warmup", 0.0, 2 * u),
        Phase("thrash", 2 * u, 2 * u, [
            {"kind": "memory_pressure", "side": "decoder", "offset": 0.0,
             "fraction": 0.25, "duration": u},
            {"kind": "memory_pressure", "side": "encoder",
             "offset": 0.5 * u, "fraction": 0.25, "duration": u},
            {"kind": "evict", "side": "decoder", "offset": 1.2 * u,
             "fraction": 0.5},
        ]),
        Phase("refill", 4 * u, 2 * u),
    ]
    return _campaign(
        "cache-thrash",
        "byte-budget squeezes + asymmetric eviction: watchdog territory",
        scale, phases)


def split_brain_resync(scale: str = "smoke") -> Campaign:
    """Overlapping decoder crashes with the control channel black: the
    resync client must retry through the blackout and survive the
    superseded restore (the idempotent crash/restore path)."""
    u = _unit(scale)
    phases = [
        Phase("warmup", 0.0, 2 * u),
        Phase("split-brain", 2 * u, 2.5 * u, [
            {"kind": "restart", "side": "decoder", "offset": 0.0,
             "downtime": 0.6 * u},
            {"kind": "restart", "side": "decoder", "offset": 0.3 * u,
             "downtime": 0.6 * u},
            {"kind": "control_blackout"},
        ]),
        Phase("resync", 4.5 * u, 2.5 * u),
    ]
    return _campaign(
        "split-brain-resync",
        "overlapping decoder crashes under a control blackout",
        scale, phases, mttr_ceiling=4.0)


def degraded_brownout(scale: str = "smoke") -> Campaign:
    """A control blackout long enough to trip the encoder into
    pass-through (degraded) mode; it must recover when control returns
    and never stay degraded."""
    u = _unit(scale)
    phases = [
        Phase("warmup", 0.0, 2 * u),
        # > heartbeat_timeout (0.75 s) at smoke scale: 3 u = 1.2 s.
        Phase("brownout", 2 * u, 3 * u, [
            {"kind": "control_blackout"},
        ]),
        Phase("restore", 5 * u, 2.5 * u),
    ]
    return _campaign(
        "degraded-brownout",
        "control plane dies long enough to force pass-through mode",
        scale, phases, mttr_ceiling=4.0)


def clock_drift(scale: str = "smoke") -> Campaign:
    """A drifting encoder clock stretches heartbeat ticks; acks thin
    out and the encoder flirts with false degradation under mild
    loss."""
    u = _unit(scale)
    phases = [
        Phase("warmup", 0.0, 2 * u),
        Phase("drift", 2 * u, 3 * u, [
            {"kind": "clock_skew", "factor": 4.0, "offset": 0.0},
            {"kind": "loss", "link": "forward", "rate": 0.03},
        ]),
        Phase("resync-clocks", 5 * u, 2 * u),
    ]
    return _campaign(
        "clock-drift",
        "4x heartbeat clock skew on the encoder + mild loss",
        scale, phases)


def dup_reorder_storm(scale: str = "smoke") -> Campaign:
    """Duplication and re-ordering at once: the decode path must stay
    byte-exact when the same wire bytes arrive twice and out of
    order."""
    u = _unit(scale)
    phases = [
        Phase("warmup", 0.0, u),
        Phase("storm", u, 4 * u, [
            {"kind": "dup_data", "every": 5},
            {"kind": "reorder_data", "every": 3, "extra_delay": 0.04},
            {"kind": "bursty_loss", "link": "forward",
             "p_good_bad": 0.03, "p_bad_good": 0.4, "loss_bad": 0.4},
        ]),
        Phase("drain", 5 * u, 2 * u),
    ]
    return _campaign(
        "dup-reorder-storm",
        "duplicated + re-ordered + bursty-lost data packets",
        scale, phases)


def brownout_thrash(scale: str = "smoke") -> Campaign:
    """The kitchen sink: memory pressure during a control brownout
    with flapping links — correlated failure the way deployments
    actually fail."""
    u = _unit(scale)
    phases = [
        Phase("warmup", 0.0, 2 * u),
        Phase("everything", 2 * u, 3 * u, [
            {"kind": "control_blackout"},
            {"kind": "memory_pressure", "side": "decoder",
             "offset": 0.5 * u, "fraction": 0.3},
            {"kind": "link_flap", "link": "forward", "down_for": 0.25 * u,
             "flaps": 2, "period": 1.5 * u},
        ]),
        Phase("pick-up-the-pieces", 5 * u, 3 * u),
    ]
    return _campaign(
        "brownout-thrash",
        "control blackout + memory pressure + link flaps at once",
        scale, phases, mttr_ceiling=4.0, max_undecodable_rate=0.4)


#: name -> builder(scale) for every canonical campaign.
CAMPAIGNS = {
    "handover-storm": handover_storm,
    "flaky-backhaul": flaky_backhaul,
    "cache-thrash": cache_thrash,
    "split-brain-resync": split_brain_resync,
    "degraded-brownout": degraded_brownout,
    "clock-drift": clock_drift,
    "dup-reorder-storm": dup_reorder_storm,
    "brownout-thrash": brownout_thrash,
}


def canonical_campaign(name: str, scale: str = "smoke") -> Campaign:
    """Build canonical campaign ``name`` at ``scale`` ("smoke"/"full")."""
    if scale not in ("smoke", "full"):
        raise ValueError(f"unknown scale {scale!r} (smoke|full)")
    try:
        builder = CAMPAIGNS[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign {name!r}; try: "
            f"{', '.join(sorted(CAMPAIGNS))}") from None
    return builder(scale)
