"""Chaos campaign engine.

Declarative fault *campaigns* — timed phases composing several
concurrent injections from :mod:`repro.sim.faults` — run against any
experiment scenario, with steady-state (SLO) hypotheses checked during
and after each phase and the verdicts emitted as a ``repro.chaos/v1``
resilience scorecard.

* :mod:`repro.chaos.campaign` — the :class:`Campaign`/:class:`Phase`
  spec (JSON round-trippable, seeded, replayable like fuzz cases) and
  the library of canonical campaigns (``handover-storm``,
  ``flaky-backhaul``, ``cache-thrash``, ...).
* :mod:`repro.chaos.slo` — the steady-state oracles: goodput floor vs
  the no-DRE baseline, bounded undecodable rate, MTTR ceiling after
  each phase, no permanent degradation, byte integrity always.
* :mod:`repro.chaos.runner` — the campaign cell (a ``run_sweep`` spec
  on a transfer or a serving target), scorecard assembly/validation/
  replay and the table renderer behind ``repro chaos``.
"""

from .campaign import (CAMPAIGNS, CHAOS_POLICIES, CHAOS_SCHEMA, Campaign,
                       Phase, canonical_campaign)
from .runner import (CampaignCell, CampaignReport, format_scorecard,
                     replay_report, run_campaign, validate_chaos_report)
from .slo import SLOResult, evaluate_slos

__all__ = [
    "CAMPAIGNS", "CHAOS_POLICIES", "CHAOS_SCHEMA", "Campaign", "Phase",
    "canonical_campaign", "CampaignCell", "CampaignReport", "format_scorecard",
    "replay_report", "run_campaign", "validate_chaos_report",
    "SLOResult", "evaluate_slos",
]
