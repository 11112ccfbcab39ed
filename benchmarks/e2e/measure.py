"""One workload, measured in its own process.

Order of passes (one thread, back to back):

1. materialise the inputs, run the correctness passes (no-DRE
   baselines, the serving ``verify=True`` pass) and one warm-up unit;
2. ``--trace 1`` only: the traced pass, the encoder stage profile and
   the observer call-count differences -- every wrapper is gone before
   step 4;
3. ``--trace 0`` only: one counted pass (``sys.setprofile``) over every
   unit, for ``py_calls_per_op``;
4. ``gc.collect(); gc.freeze()``, then rounds of calibration-bracketed
   timed units until ``--seconds`` are used up or :data:`MAX_ROUNDS`
   rounds are done.

Every run of a unit in its own configuration, timed or not, must return
the simulated fingerprint of its first run; anything else aborts with
``nondeterministic``.
"""

from __future__ import annotations

import gc
import resource
import sys
from statistics import median
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional

import costmodel
from layertrace import LAYERS, LayerTracer
from workloads import (OBSERVERS, UnitResult, Workload, traced_units,
                       workload_named)

#: Repetitions of every unit when ``--seconds`` allows (the issue's K).
MAX_ROUNDS = 9

ENCODER_STAGES = ("batch_fingerprint", "table_probe", "region_expand",
                  "wire_pack", "cache_ops")


END_TO_END_UNITS = {
    "setup_s": "s",               # measured by run.py around fresh spawns
    "host_cu_per_op": "cu",
    "py_calls_per_op": "count",
    "peak_rss_mb": "MB",
    "sim_bytes_sent_ratio": "ratio",
    "sim_download_p50_s": "sim-s",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls_per_op"] = "count"
    units.update({
        "sim.engine.events_per_op": "count",
        "sim.link.pkts_per_op": "count",
        "sim.link.drops_per_kpkt": "count",
        "net.tcp.retransmits_per_kpkt": "count",
        "net.tcp.timeouts_per_kpkt": "count",
        "gateway.undecodable_per_kpkt": "count",
        "core.encoder.hit_ratio": "ratio",
        "core.encoder.bytes_saved_ratio": "ratio",
        "core.cache.inserts_per_op": "count",
        "core.cache.lookups_per_op": "count",
        "core.cache.evictions_per_op": "count",
        "core.cache.flushes_per_op": "count",
        "serving.flows_high_water": "count",
        "serving.download_p99_s": "sim-s",
        "serving.tcp_seq.fail_ratio": "ratio",
        "serving.tcp_seq.bytes_sent_ratio": "ratio",
    })
    for stage in ENCODER_STAGES:
        units[f"core.encoder.stage.{stage}_share"] = "ratio"
    for observer in OBSERVERS:
        units[f"observers.{observer}.calls_per_op"] = "count"
    units.update({
        "fail_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
        "trace.coverage_ratio": "ratio",
        "harness.cpu_us_per_pkt": "us",
        "harness.requests_per_cpu_s": "1/s",
        "harness.calib_pass_ms": "ms",
        "harness.rep_iqr_ratio": "ratio",
    })
    return units


class Nondeterministic(RuntimeError):
    """Two runs of one unit disagreed on a simulated quantity."""


def run_unit(unit: Any, tracer: Any = None, **overrides: Any) -> UnitResult:
    """One run of a unit, ending with ``gc.collect()``.

    A unit pays for the cyclic garbage it leaves (a whole testbed), and
    whatever runs next starts clean.  Left to the allocation counters
    that collection fires wherever a threshold happens to trip -- in
    some processes inside the calibration passes, which then read 40 %
    slow for the whole run -- and peak RSS depends on how many dead
    testbeds pile up first.
    """
    result = unit.run(tracer=tracer, **overrides)
    gc.collect()
    return result


class CheckedRunner:
    """Runs units and holds every repeat to the first run's fingerprint."""

    def __init__(self) -> None:
        self._first: Dict[str, UnitResult] = {}

    def run(self, unit: Any, tracer: Any = None) -> UnitResult:
        result = run_unit(unit, tracer)
        reference = self._first.setdefault(unit.label, result)
        if result.fingerprint != reference.fingerprint:
            raise Nondeterministic(
                f"nondeterministic: {unit.label} gave "
                f"{result.fingerprint} after {reference.fingerprint}")
        return result


def count_calls(fn: Callable[[], Any]) -> int:
    """Python ``call`` + ``c_call`` events raised while ``fn()`` runs."""
    counter = [0]

    def on_event(frame: Any, event: str, arg: Any,
                 counter: List[int] = counter) -> None:
        if event == "call" or event == "c_call":
            counter[0] += 1

    sys.setprofile(on_event)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counter[0]


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            max_rounds: int = MAX_ROUNDS,
            spans_out: Optional[List[Dict[str, Any]]] = None
            ) -> Dict[str, Any]:
    """Run one workload.

    Returns ``{"correct", "attempted", "failed", "end_to_end",
    "per_layer", "diagnostics"}`` with every value as measured.  With
    ``trace`` the per-layer block is complete and ``py_calls_per_op`` is
    not counted; without it the per-layer block holds only what the
    timed rounds give.
    """
    workload = workload_named(workload_name)
    units = workload.units(seed)
    for unit in units:
        unit.materialise()
    runner = CheckedRunner()
    correct, baselines = _correctness_passes(workload, units)
    runner.run(units[0])                                   # warm-up

    per_layer: Dict[str, float] = {}
    traced: Dict[str, Any] = {}
    calls = 0
    if trace:
        traced = _traced_pass(units, runner, spans_out)
        per_layer.update(traced["metrics"])
        per_layer.update(_stage_shares(units))
        per_layer.update(_observer_calls(units))
        per_layer.update(_tcp_seq_record(workload, units))
    else:
        calls = sum(count_calls(lambda unit=unit: runner.run(unit))
                    for unit in units)

    timed = _timed_rounds(units, runner, seconds, max_rounds)
    results: List[UnitResult] = timed["results"]
    costs: List[List[float]] = timed["costs"]
    raw_median = [median(samples) for samples in timed["raw"]]

    ops = sum(result.ops for result in results)
    failed = sum(result.failed for result in results)
    weight = sum(unit.weight for unit in units)
    correct = correct and not any(result.mismatched for result in results)
    if workload.kind == "xfer":
        # A plain unit is its own no-DRE baseline.
        sent_ratio = (sum(result.forward_bytes for result in results)
                      / sum(baselines.get(unit.inputs, result.forward_bytes)
                            for unit, result in zip(units, results)))
    else:
        sent_ratio = (sum(result.sent_ratio for result in results)
                      / len(results))
    end_to_end = {
        "host_cu_per_op": sum(costmodel.lower_quartile(samples)
                              for samples in costs) / weight,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
        "sim_bytes_sent_ratio": sent_ratio,
        "sim_download_p50_s": _download_p50(units, results),
    }
    if not trace:
        end_to_end["py_calls_per_op"] = calls / weight
    per_layer.update({
        "fail_ratio": failed / ops,
        "serving.flows_high_water": float(max(
            result.detail.get("flows_high_water", 0) for result in results)),
        "serving.download_p99_s": median(
            [result.detail.get("p99_download_s", 0.0) for result in results]),
        "harness.requests_per_cpu_s": ops / sum(raw_median),
        "harness.calib_pass_ms": median(timed["passes"]) * 1e3,
        "harness.rep_iqr_ratio": median(
            [costmodel.iqr_ratio(samples) for samples in costs]),
    })
    if trace:
        # The traced pass ran once, the timed rounds K times; both sides
        # are in cu so a host phase between them cancels.
        same_units = [units.index(unit) for unit in traced["units"]]
        per_layer["trace.overhead_ratio"] = traced["cost"] / sum(
            costmodel.lower_quartile(costs[index]) for index in same_units)
        per_layer["harness.cpu_us_per_pkt"] = (
            sum(raw_median[index] for index in same_units) * 1e6
            / traced["packets"])
    return {
        "correct": correct,
        "attempted": ops * timed["rounds"],
        "failed": failed * timed["rounds"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "diagnostics": {
            "rounds": timed["rounds"],
            "units": len(units),
            "ops_per_round": ops,
            "op_weight_per_round": weight,
            "timed_wall_s": timed["wall_seconds"],
            "cpu_s_per_round": sum(raw_median),
            "host_cu_per_op_median": sum(
                median(samples) for samples in costs) / weight,
        },
    }


def _download_p50(units: List[Any], results: List[UnitResult]) -> float:
    """Median download time per policy, averaged over the policies.

    On the single-policy workloads this is the median over units.  The
    three DRE policies sit around 1.9 s, 4.5 s and 4.8 s; the plain
    median of that mixture lands in the gap between them and jumps by
    8 % from one content seed to the next, the per-policy form by 6 %.
    """
    by_policy: Dict[Any, List[float]] = {}
    for unit, result in zip(units, results):
        by_policy.setdefault(unit.policy, []).append(result.download_s)
    medians = [median(samples) for samples in by_policy.values()]
    return sum(medians) / len(medians)


def _correctness_passes(workload: Workload, units: List[Any]) -> tuple:
    """Untimed checks; returns ``(correct, no-DRE bytes by unit inputs)``.

    xfer: the same-inputs no-DRE baseline of every DRE unit runs once;
    its forward bytes are the denominator of ``sim_bytes_sent_ratio``.
    Observed units also run once per policy with ``verify=True``.
    serve: the first two seeds run once with ``verify=True`` -- content
    compared byte for byte, shard invariants checked every simulated
    second.
    """
    correct = True
    baselines: Dict[tuple, int] = {}
    if workload.kind == "serve":
        for unit in units[:2]:
            verified = run_unit(unit, verify=True)
            correct = (correct and verified.mismatched == 0
                       and verified.detail["oracle_checks"] > 0)
        return correct, baselines
    for unit in units:
        if unit.policy is not None and unit.inputs not in baselines:
            outcome = run_unit(unit.baseline())
            correct = correct and outcome.failed == 0
            baselines[unit.inputs] = outcome.forward_bytes
    for unit in traced_units(units):
        if unit.observed:
            # Arms the online oracles, which raise InvariantViolation the
            # moment byte integrity or cache coherence breaks.
            correct = correct and run_unit(unit, verify=True).failed == 0
    return correct, baselines


def _timed_rounds(units: List[Any], runner: CheckedRunner, seconds: float,
                  max_rounds: int) -> Dict[str, Any]:
    """Rounds of every unit, each bracketed by calibration passes."""
    gc.collect()
    gc.freeze()
    calibrator = costmodel.Calibrator()
    costs: List[List[float]] = [[] for _ in units]
    raw: List[List[float]] = [[] for _ in units]
    results: List[UnitResult] = []
    began = perf_counter()
    rounds = 0
    try:
        while rounds < max_rounds:
            elapsed = perf_counter() - began
            if rounds and elapsed + elapsed / rounds > seconds:
                break
            unit_seconds: List[float] = []
            calibration = [calibrator.run()]
            results = []
            for unit in units:
                started = process_time()
                result = runner.run(unit)
                unit_seconds.append(process_time() - started)
                calibration.append(calibrator.run())
                results.append(result)
            round_cost = costmodel.round_costs(unit_seconds, calibration)
            for index, cost in enumerate(round_cost):
                costs[index].append(cost)
                raw[index].append(unit_seconds[index])
            rounds += 1
    finally:
        gc.unfreeze()
    return {"rounds": rounds, "results": results, "costs": costs,
            "raw": raw, "passes": calibrator.passes,
            "wall_seconds": perf_counter() - began}


# -- the traced pass ---------------------------------------------------------

def _traced_pass(units: List[Any], runner: CheckedRunner,
                 spans_out: Optional[List[Dict[str, Any]]]
                 ) -> Dict[str, Any]:
    """Trace the first unit of each policy.

    The wrappers are restored before this returns; the traced results go
    through the same fingerprint check as every other run, so a wrapper
    that changed behaviour would abort the run.
    """
    subset = traced_units(units)
    tracer = LayerTracer()
    calibrator = costmodel.Calibrator()
    calibration = [calibrator.run()]
    unit_seconds: List[float] = []
    tracer.install()
    try:
        for unit in subset:
            started = process_time()
            runner.run(unit, tracer=tracer)
            unit_seconds.append(process_time() - started)
            calibration.append(calibrator.run())
    finally:
        tracer.restore()
    summary = tracer.summary()
    if spans_out is not None:
        spans_out.append(tracer.unit_spans(0))

    weight = sum(unit.weight for unit in subset)
    total_self = sum(summary["layer_self_seconds"].values())
    metrics: Dict[str, float] = {
        "trace.coverage_ratio": summary["root_seconds"] / tracer.unit_seconds}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (
            summary["layer_self_seconds"][layer] / total_self)
        metrics[f"{layer}.calls_per_op"] = (
            summary["layer_calls"][layer] / weight)

    def instances(*class_names: str) -> List[Any]:
        return [instance for name in class_names
                for instance in tracer.seen.get(name, {}).values()]

    def cache_calls(*methods: str) -> int:
        return sum(summary["site_calls"].get(f"{owner}.{method}", 0)
                   for owner in ("ByteCache", "ShardedByteCache")
                   for method in methods)

    forward = [link.stats for link in instances("Link")
               if link.name == "bottleneck-fwd"]
    packets = sum(stats.packets_offered for stats in forward)
    kpkt = packets / 1000.0
    connections = instances("TCPConnection")
    encoders = instances("EncoderGateway")
    data_packets = sum(gw.stats.data_packets for gw in encoders)
    bytes_before = sum(gw.stats.bytes_before for gw in encoders)
    metrics.update({
        "sim.engine.events_per_op": sum(
            sim.events_processed for sim in instances("Simulator")) / weight,
        "sim.link.pkts_per_op": packets / weight,
        "sim.link.drops_per_kpkt": sum(
            stats.packets_lost + stats.packets_queue_dropped
            for stats in forward) / kpkt,
        "net.tcp.retransmits_per_kpkt": sum(
            conn.stats.retransmissions for conn in connections) / kpkt,
        "net.tcp.timeouts_per_kpkt": sum(
            conn.stats.timeouts for conn in connections) / kpkt,
        "gateway.undecodable_per_kpkt": sum(
            gw.stats.undecodable_dropped
            for gw in instances("DecoderGateway")) / kpkt,
        "core.encoder.hit_ratio": (
            sum(gw.stats.encoded_packets for gw in encoders) / data_packets
            if data_packets else 0.0),
        "core.encoder.bytes_saved_ratio": (
            1.0 - sum(gw.stats.bytes_after for gw in encoders) / bytes_before
            if bytes_before else 0.0),
        "core.cache.inserts_per_op": cache_calls("insert_packet") / weight,
        "core.cache.lookups_per_op": cache_calls(
            "lookup", "lookup_view", "lookup_previous") / weight,
        "core.cache.evictions_per_op": sum(
            cache.store.evictions
            for cache in instances("ByteCache", "ShardedByteCache")) / weight,
        "core.cache.flushes_per_op": cache_calls("flush") / weight,
    })
    return {"metrics": metrics, "units": subset, "packets": packets,
            "cost": sum(costmodel.round_costs(unit_seconds, calibration))}


def _stage_shares(units: List[Any]) -> Dict[str, float]:
    """Encoder stage split from the program's own ``profile=True``."""
    totals = dict.fromkeys(ENCODER_STAGES, 0.0)
    for unit in traced_units(units):
        if "profile" not in unit.extra_flags or unit.policy is None:
            continue
        profile = run_unit(unit, profile=True).detail["profile"]
        for stage, entry in profile.items():
            # The gateway encodes packet by packet, which the profiler
            # books as "fingerprint"; it is the stage the batched sweep
            # books as "batch_fingerprint", reported under the one name.
            name = "batch_fingerprint" if stage == "fingerprint" else stage
            if name in totals:
                totals[name] += entry["seconds"]
    whole = sum(totals.values())
    return {f"core.encoder.stage.{stage}_share":
            (seconds / whole if whole else 0.0)
            for stage, seconds in totals.items()}


def _tcp_seq_record(workload: Workload, units: List[Any]) -> Dict[str, float]:
    """The serving units under ``tcp_seq``, once each, untimed.

    The issue named ``tcp_seq`` for ``serve_cache_pressure``; some of
    its requests never finish, and a gated workload may not have failing
    operations (README "The driver's contract", rule 1).  So the gated
    units run ``k_distance`` and this pass records what ``tcp_seq`` does
    on the same seeds, as found: failed requests over attempted, and
    bytes sent.  Its failures are not in the result line's ``failed``.
    """
    if workload.kind != "serve":
        return {"serving.tcp_seq.fail_ratio": 0.0,
                "serving.tcp_seq.bytes_sent_ratio": 0.0}
    results = [run_unit(unit, policy="tcp_seq") for unit in units]
    return {
        "serving.tcp_seq.fail_ratio": (
            sum(result.failed for result in results)
            / sum(result.ops for result in results)),
        "serving.tcp_seq.bytes_sent_ratio": (
            sum(result.sent_ratio for result in results) / len(results)),
    }


def _observer_calls(units: List[Any]) -> Dict[str, float]:
    """Python calls each observer adds when it alone is on, over all-off."""
    subset = traced_units(units)
    weight = sum(unit.weight for unit in subset)
    flags = [name for name in OBSERVERS if name in subset[0].extra_flags]
    off = dict.fromkeys(flags, False)
    # The observers import lazily; keep that out of the counted runs.
    run_unit(subset[0], **dict.fromkeys(flags, True))

    def counted(**on: bool) -> int:
        switches = {**off, **on}
        return sum(count_calls(lambda unit=unit: run_unit(unit, **switches))
                   for unit in subset)

    base = counted()
    return {f"observers.{name}.calls_per_op":
            ((counted(**{name: True}) - base) / weight
             if name in flags else 0.0)
            for name in OBSERVERS}
