"""Steady-state (SLO) oracles for chaos campaigns.

Each oracle turns one steady-state hypothesis — "the system keeps its
service level under and after this fault regime" — into a pass/fail
verdict with the measured value and threshold attached.  They are
layered on what the repo already measures: the telemetry gauge series
(PR 3) for recovery timing, the verification harness (PR 4) for byte
integrity, and the paired no-DRE baseline for the goodput floor.

Oracles
-------
``byte_integrity``
    The client's bytes match the source object and no
    ``InvariantViolation`` fired.  Always armed; never waived.
``completion`` (serving target only, beside byte integrity)
    Every request of the population completed.
``goodput_floor``
    The transfer completes, and no slower than
    ``goodput_delay_ratio`` x the no-DRE baseline run under the *same*
    link faults (gateway faults don't apply to the baseline — DRE may
    pay for its statefulness, but only this much).
``undecodable_rate``
    Decoder drops (undecodable / epoch-gated / mid-resync) stay under
    ``max_undecodable_rate`` of the data packets the encoder emitted.
``mttr_ceiling``
    After each phase ends, the data path recovers — decoder decoding
    again with no resync in flight and no degraded encoder — within
    ``mttr_ceiling`` seconds (measured on the sampled gauge series).
``no_permanent_degradation``
    At end of run the encoder is not stuck in pass-through and the
    decoder is not stuck resyncing: chaos may bend the service level,
    it must not leave a dent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..metrics.collectors import TransferResult
from .campaign import Campaign

#: Oracle names in report order.
ORACLES = ("byte_integrity", "goodput_floor", "undecodable_rate",
           "mttr_ceiling", "no_permanent_degradation")

#: Oracle names of a run on a serving target, in report order.
SERVING_ORACLES = ("byte_integrity", "completion")


@dataclass
class SLOResult:
    """One oracle's verdict on one campaign run."""

    oracle: str
    passed: bool
    value: Optional[float]
    threshold: Optional[float]
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "passed": self.passed,
                "value": _round(self.value),
                "threshold": self.threshold, "detail": self.detail}


def _round(value: Optional[float]) -> Optional[float]:
    """Stable JSON scalar: bounded precision, nan/inf as None."""
    if value is None or not math.isfinite(value):
        return None
    return round(value, 6)


# ---------------------------------------------------------------------------
# MTTR from the sampled gauge series
# ---------------------------------------------------------------------------

def _series(telemetry: Dict[str, Any], key: str) -> Optional[List]:
    return telemetry["sampler"]["series"].get(key)


def phase_recovery_times(telemetry: Dict[str, Any],
                         phase_ends: List[float]) -> List[Optional[float]]:
    """Seconds from each phase end to a recovered data path.

    Recovery at sample *t* means: the decoder decoded at least one more
    packet than it had at the phase end (data is moving again), no
    resync is in flight, and the encoder is not degraded.  ``None``
    marks "nothing to recover" — the transfer was already complete (or
    the phase never started) before the phase end.  A run that ends
    without recovering scores infinity, which fails any ceiling.
    """
    times = telemetry["sampler"]["times"]
    decoded = _series(telemetry, "gw.decoded_ok{gw=decoder}")
    resyncing = _series(telemetry, "resilience.resyncing{gw=decoder}")
    degraded = _series(telemetry, "resilience.degraded{gw=encoder}")
    results: List[Optional[float]] = []
    for phase_end in phase_ends:
        results.append(_recovery_after(times, decoded, resyncing, degraded,
                                       phase_end))
    return results


def _recovery_after(times: List[float], decoded: Optional[List],
                    resyncing: Optional[List], degraded: Optional[List],
                    phase_end: float) -> Optional[float]:
    if not times or times[-1] <= phase_end:
        return None                      # run over before the phase ended
    # Decoded count as of the phase end (last sample at or before it).
    base = None
    for index, t in enumerate(times):
        if t > phase_end:
            break
        base = index
    base_decoded = _at(decoded, base, default=0.0)
    for index, t in enumerate(times):
        if t <= phase_end:
            continue
        if _at(resyncing, index, default=0.0):
            continue
        if _at(degraded, index, default=0.0):
            continue
        if _at(decoded, index, default=0.0) > base_decoded:
            return t - phase_end
    # The run kept going but the path never came back: unrecovered.
    # Unless the transfer had already delivered everything — then there
    # was simply no traffic left to prove recovery with; the
    # no_permanent_degradation oracle covers the end state.
    return math.inf


def _at(series: Optional[List], index: Optional[int],
        default: float) -> float:
    if series is None or index is None:
        return default
    value = series[index]
    if value is None:
        return default
    value = float(value)
    if math.isnan(value):
        return default
    return value


# ---------------------------------------------------------------------------
# the oracle battery
# ---------------------------------------------------------------------------

def evaluate_slos(campaign: Campaign, result: TransferResult,
                  baseline: Optional[TransferResult],
                  mttrs: List[Optional[float]],
                  violation: Optional[Dict[str, Any]]) -> List[SLOResult]:
    """Run every oracle against one campaign run.

    ``baseline`` is the no-DRE run under the same link faults (None
    when it could not complete — the floor is then just "complete at
    all").  ``mttrs`` are the per-phase recovery times from
    :func:`phase_recovery_times`; ``violation`` is the
    ``InvariantViolation.summary()`` dict when the harness tripped.
    """
    slo = campaign.slo
    results = [
        _byte_integrity(violation),
        _goodput_floor(slo, result, baseline),
        _undecodable_rate(slo, result),
        _mttr_ceiling(slo, mttrs),
        _no_permanent_degradation(result),
    ]
    return results


def _byte_integrity(violation: Optional[Dict[str, Any]]) -> SLOResult:
    if violation is not None:
        return SLOResult(
            "byte_integrity", False, None, None,
            f"invariant violation [{violation.get('oracle')}]: "
            f"{str(violation.get('message'))[:120]}")
    return SLOResult("byte_integrity", True, None, None,
                     "no invariant violations")


def evaluate_serving_slos(report: Optional[Dict[str, Any]],
                          violation: Optional[Dict[str, Any]]
                          ) -> List[SLOResult]:
    """A serving run's oracles: byte integrity (no violation, no response
    that differs from its content) and every request completed.
    ``report`` is ``None`` when a violation stopped the run."""
    requests = report["requests"] if report is not None else {}
    bad = requests.get("content_mismatches")
    done, total = requests.get("completed", 0), requests.get("total")
    return [_byte_integrity(violation) if not bad else SLOResult(
                "byte_integrity", False, bad, 0,
                f"{bad} responses differ from their content"),
            SLOResult("completion", done == total, None, None,
                      f"{done}/{total} requests completed")]


def _goodput_floor(slo: Dict[str, float], result: TransferResult,
                   baseline: Optional[TransferResult]) -> SLOResult:
    ceiling = slo.get("goodput_delay_ratio", 4.0)
    if not result.completed:
        return SLOResult(
            "goodput_floor", False, None, ceiling,
            f"transfer did not complete "
            f"({result.fraction_retrieved:.0%} retrieved, "
            f"{'stalled' if result.stalled else 'time limit'})")
    if (baseline is None or not baseline.completed
            or not baseline.download_time or not result.download_time):
        return SLOResult("goodput_floor", True, None, ceiling,
                         "completed; no comparable baseline")
    ratio = result.download_time / baseline.download_time
    return SLOResult(
        "goodput_floor", ratio <= ceiling, ratio, ceiling,
        f"download {result.download_time:.2f}s vs baseline "
        f"{baseline.download_time:.2f}s")


def _undecodable_rate(slo: Dict[str, float],
                      result: TransferResult) -> SLOResult:
    ceiling = slo.get("max_undecodable_rate", 0.3)
    offered = (result.encoder_stats.data_packets
               if result.encoder_stats is not None else 0)
    if offered == 0:
        return SLOResult("undecodable_rate", True, None, ceiling,
                         "no data packets offered")
    rate = result.undecodable_drops / offered
    return SLOResult(
        "undecodable_rate", rate <= ceiling, rate, ceiling,
        f"{result.undecodable_drops} decoder drops / {offered} data "
        f"packets")


def _mttr_ceiling(slo: Dict[str, float],
                  mttrs: List[Optional[float]]) -> SLOResult:
    ceiling = slo.get("mttr_ceiling", 3.0)
    measured = [m for m in mttrs if m is not None]
    if not measured:
        return SLOResult("mttr_ceiling", True, None, ceiling,
                         "no recovery windows to measure")
    worst = max(measured)
    detail = ("phase recoveries: "
              + ", ".join("unrecovered" if math.isinf(m) else f"{m:.2f}s"
                          for m in measured))
    return SLOResult("mttr_ceiling", worst <= ceiling,
                     None if math.isinf(worst) else worst, ceiling, detail)


def _no_permanent_degradation(result: TransferResult) -> SLOResult:
    problems = []
    if not result.completed:
        problems.append("transfer never completed")
    enc = result.encoder_resilience
    if enc is not None and enc.degraded:
        problems.append("encoder still in pass-through mode")
    telemetry = result.telemetry
    if telemetry is not None:
        final = telemetry.get("final_gauges", {})
        if final.get("resilience.resyncing{gw=decoder}"):
            problems.append("decoder still resyncing")
    if problems:
        return SLOResult("no_permanent_degradation", False, None, None,
                         "; ".join(problems))
    return SLOResult("no_permanent_degradation", True, None, None,
                     "clean end state")
