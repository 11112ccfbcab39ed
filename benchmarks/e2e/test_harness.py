"""Tests of the benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e`` (not part of tier-1: the
smokes take about a minute).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for _path in (str(HERE.parents[1] / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import costmodel  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from layertrace import LAYERS, LayerTracer, trace_sites  # noqa: E402
from workloads import WORKLOADS, TransferUnit  # noqa: E402


# -- estimator arithmetic ----------------------------------------------------

def test_lower_quartile_is_inclusive_and_never_extrapolates():
    assert costmodel.lower_quartile([9, 1, 8, 2, 7, 3, 6, 4, 5]) == 3
    assert costmodel.lower_quartile([4.0, 1.0]) == pytest.approx(1.75)
    assert costmodel.lower_quartile([7.5]) == 7.5
    # seven reps: position 1.5, halfway between the 2nd and 3rd smallest
    assert costmodel.lower_quartile(
        [10, 11, 12, 13, 14, 15, 40]) == pytest.approx(11.5)


def test_lower_quartile_ignores_slow_outliers():
    quiet = [10.0, 10.1, 10.2, 10.1, 10.0, 10.2, 10.1, 10.0, 10.1]
    noisy = quiet[:6] + [14.0, 19.0, 25.0]
    assert costmodel.lower_quartile(noisy) == pytest.approx(
        costmodel.lower_quartile(quiet), rel=0.01)


def test_round_costs_divide_by_the_adjacent_calibration_passes():
    costs = costmodel.round_costs([0.20, 0.40], [0.010, 0.010, 0.030])
    assert costs == pytest.approx([20.0, 20.0])
    # a host that slows down 2x mid-round slows unit and passes alike
    slowed = costmodel.round_costs([0.20, 0.40], [0.010, 0.010, 0.010])
    assert slowed == pytest.approx([20.0, 40.0])
    with pytest.raises(ValueError):
        costmodel.round_costs([0.2, 0.4], [0.01, 0.01])


def test_iqr_ratio():
    assert costmodel.iqr_ratio([1, 2, 3, 4, 5]) == pytest.approx(2 / 3)
    assert costmodel.iqr_ratio([3.0]) == 0.0


def test_calibration_kernel_is_deterministic_and_logged():
    calibrator = costmodel.Calibrator()
    events = costmodel.TOKENS * costmodel.HOPS
    assert costmodel.calibration_kernel(calibrator._payload) == events
    assert calibrator.run() > 0 and len(calibrator.passes) == 1


# -- span accounting ---------------------------------------------------------

class FakeClock:
    """Moves only when told to; binary fractions, so sums are exact."""

    def __init__(self):
        self.now = 64.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def inner():
        clock.advance(0.25)

    def outer():
        clock.advance(0.5)
        tracer.call("workload", "inner", inner)
        tracer.call("workload", "inner", inner)
        clock.advance(0.125)

    tracer.begin_unit()
    tracer.call("serving", "outer", outer)
    tracer.end_unit()
    summary = tracer.summary()
    assert summary["spans"] == 3
    assert summary["layer_calls"]["serving"] == 1
    assert summary["layer_calls"]["workload"] == 2
    assert summary["site_calls"] == {"outer": 1, "inner": 2}
    assert summary["layer_self_seconds"]["serving"] == 0.625
    assert summary["layer_self_seconds"]["workload"] == 0.5
    assert summary["root_seconds"] == 1.125 == tracer.unit_seconds
    spans = tracer.unit_spans(0)
    assert [row[3] for row in spans["spans"]] == [-1, 0, 0]
    assert [row[1:3] for row in spans["spans"]] == [
        [0.0, 1.125], [0.5, 0.75], [0.75, 1.0]]
    assert {site["layer"] for site in spans["sites"]} <= set(LAYERS)


def test_a_span_closes_when_the_call_raises():
    tracer = LayerTracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("serving", "boom", boom)
    tracer.call("serving", "fine", lambda: None)
    assert tracer.summary()["spans"] == 2
    assert tracer._stack == [-1]


def test_wrappers_are_fully_restored():
    before = {(owner, method): vars(owner)[method]
              for owner, method, _layer in trace_sites()}
    assert len(before) >= 20
    tracer = LayerTracer()
    tracer.install()
    try:
        assert all(vars(owner)[method] is not original
                   for (owner, method), original in before.items())
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    assert all(vars(owner)[method] is original
               for (owner, method), original in before.items())


# -- counted pass ------------------------------------------------------------

def test_py_calls_repeat_exactly():
    unit = TransferUnit("tcp_seq", 0, 7)
    unit.materialise()
    unit.run()                                              # warm-up
    first = measure.count_calls(unit.run)
    second = measure.count_calls(unit.run)
    assert first == second > 100_000


# -- one smoke per workload at K = 1 -----------------------------------------

@pytest.fixture(scope="module")
def site_originals():
    return {(owner, method): vars(owner)[method]
            for owner, method, _layer in trace_sites()}


@pytest.mark.parametrize("name", [workload.name for workload in WORKLOADS])
def test_traced_smoke(name, site_originals):
    spans = []
    result = measure.measure(name, seed=1, seconds=1.0, trace=True,
                             max_rounds=1, spans_out=spans)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert result["diagnostics"]["rounds"] == 1
    layers = result["per_layer"]
    assert sorted(layers) == sorted(measure.per_layer_units())
    assert layers["trace.coverage_ratio"] >= 0.9
    assert layers["trace.overhead_ratio"] > 0.5
    assert sum(layers[f"{layer}.self_share"]
               for layer in LAYERS) == pytest.approx(1.0)
    assert len(spans) == 1 and spans[0]["spans"]
    # no wrapper survives into (or past) the timed rounds
    assert all(vars(owner)[method] is original
               for (owner, method), original in site_originals.items())
    core = [layer for layer in LAYERS if layer.startswith("core.")]
    if name == "xfer_plain_lossy":
        assert all(layers[f"{layer}.calls_per_op"] == 0 for layer in core)
        assert result["end_to_end"]["sim_bytes_sent_ratio"] == 1.0
    else:
        assert all(layers[f"{layer}.calls_per_op"] > 0 for layer in core)
        assert result["end_to_end"]["sim_bytes_sent_ratio"] < 1.0
    if name == "xfer_dre_lossy":
        assert layers["core.cache.evictions_per_op"] == 0
    if name == "serve_cache_pressure":
        assert layers["core.cache.evictions_per_op"] > 0
        assert layers["serving.calls_per_op"] > 0
        assert layers["workload.calls_per_op"] > 0
        # the issue's policy, recorded beside the gated one
        assert 0.3 < layers["serving.tcp_seq.bytes_sent_ratio"] < 1.0
        assert 0.0 <= layers["serving.tcp_seq.fail_ratio"] < 0.05
    if name == "xfer_observed":
        assert all(layers[f"observers.{observer}.calls_per_op"] > 0
                   for observer in ("telemetry", "spans", "verify"))


def test_nondeterminism_aborts():
    runner = measure.CheckedRunner()
    unit = TransferUnit(None, 0, 7)
    unit.materialise()
    runner.run(unit)
    unit.loss_seed = 1                   # same label, different run
    with pytest.raises(measure.Nondeterministic):
        runner.run(unit)


# -- command line ------------------------------------------------------------

def test_cli_last_line_is_the_result_object(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "xfer_plain_lossy", "--seed", "3", "--seconds", "1", "--trace", "0",
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == 48
    assert sorted(last["metrics"]) == sorted(measure.END_TO_END_UNITS)
    for name, entry in last["metrics"].items():
        assert entry["unit"] == measure.END_TO_END_UNITS[name]
        assert entry["value"] > 0
    assert (tmp_path / "result_xfer_plain_lossy.json").is_file()


def test_list_agrees_with_benchmark_json(capsys):
    assert run.main(["--list"]) == 0
    printed = capsys.readouterr().out
    for workload in WORKLOADS:
        assert workload.name in printed
