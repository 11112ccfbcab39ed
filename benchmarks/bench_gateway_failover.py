"""Gateway failover: download-time ratio vs decoder-restart frequency.

The recovery-layer counterpart of the paper's loss sweeps: instead of
sweeping channel loss, sweep how often the decoder gateway crashes and
restarts with a cold cache.  With the resilience layer
(epochs + resync + heartbeats) each restart costs one bounded resync
and the download-time ratio stays near 1; without it every restart
strands the encoder's long-range references and the transfer limps
home on raw TCP retransmission timers — an order of magnitude slower,
accruing *more* restarts because it stays exposed longer.

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_gateway_failover.py
"""

from conftest import print_report

from repro.experiments import ExperimentConfig
from repro.experiments.runner import (FILE_NAME, Fetch, build_testbed,
                                      collect_result, run_fetches)
from repro.metrics.collectors import TransferResult
from repro.metrics.report import format_recovery, format_table
from repro.workload.redundancy import (DependencyFileSpec,
                                       generate_dependency_file)

#: Long-range redundancy: references point at long-ACKed segments TCP
#: will never retransmit, so a cold cache cannot heal by itself.
DATA = generate_dependency_file(DependencyFileSpec(
    size=250 * 1460, avg_dependencies=3.0, redundancy=0.5,
    history_window=300, locality_scale=100.0, seed=7))

RESILIENCE_KWARGS = dict(heartbeat_interval=0.02, heartbeat_timeout=0.06,
                         resync_timeout=0.05, resync_grace=0.02,
                         watchdog_window=8)

#: Seconds between decoder crashes (downtime 0.02 s each).
RESTART_PERIODS = [0.4, 0.2, 0.1]
DOWNTIME = 0.02
TIME_LIMIT = 30.0


def run_one(resilience: bool, period=None):
    """One transfer; decoder restarts every ``period`` seconds if set."""
    config = ExperimentConfig(
        corpus="file1", policy="tcp_seq", seed=5,
        tcp_max_retries=8, tcp_min_rto=0.05, tcp_max_rto=0.5,
        time_limit=TIME_LIMIT, resilience=resilience,
        resilience_kwargs=RESILIENCE_KWARGS if resilience else {})
    testbed = build_testbed(config)
    restarts = {"n": 0}
    if period is not None:
        gateway = testbed.gateways.decoder
        sim = testbed.sim

        def crash():
            gateway.fail()
            sim.after(DOWNTIME, restore)

        def restore():
            gateway.restart()
            restarts["n"] += 1
            sim.after(max(period - DOWNTIME, 0.01), crash)

        sim.at(0.12, crash)
    run = run_fetches(testbed, config, {FILE_NAME: DATA}, [Fetch()])
    result = collect_result(testbed, run.outcomes[0], config)
    return result, restarts["n"]


def sweep():
    baseline, _ = run_one(resilience=False)
    rows = []
    for period in RESTART_PERIODS:
        repaired, restarts_on = run_one(resilience=True, period=period)
        unrepaired, restarts_off = run_one(resilience=False, period=period)
        rows.append((period, baseline, repaired, restarts_on,
                     unrepaired, restarts_off))
    return baseline, rows


def _ratio(result: TransferResult, baseline: TransferResult) -> float:
    if result.download_time is None:        # stall: charge the time limit
        return TIME_LIMIT / baseline.download_time
    return result.download_time / baseline.download_time


def test_failover_ratio_vs_restart_frequency(benchmark):
    baseline, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table_rows = []
    summaries, labels = [], []
    for period, base, repaired, n_on, unrepaired, n_off in rows:
        ratio_on = _ratio(repaired, base)
        ratio_off = _ratio(unrepaired, base)
        table_rows.append([
            f"{period:.1f}", n_on, f"{ratio_on:.2f}",
            repaired.resyncs_completed,
            repaired.decoder_stats.undecodable_dropped,
            n_off, f"{ratio_off:.2f}",
            unrepaired.decoder_stats.undecodable_dropped,
        ])
        summaries.append(repaired.recovery_summary())
        labels.append(f"period={period:.1f}")
    print_report(
        "Download-time ratio vs decoder restart frequency "
        f"(baseline {baseline.download_time:.2f} s, fault-free)",
        format_table(
            "tcp_seq policy, decoder restarts every <period> s",
            ["period", "restarts+", "ratio+", "resyncs", "undec+",
             "restarts-", "ratio-", "undec-"],
            table_rows))
    print_report(
        "Recovery metrics (resilience layer on)",
        format_recovery("Per-period recovery summary", summaries, labels))

    for period, base, repaired, _n_on, unrepaired, _n_off in rows:
        assert repaired.completed, period
        # One bounded resync per crash: the repaired run stays far
        # closer to fault-free than the unrepaired one at every
        # frequency ...
        assert _ratio(repaired, base) < _ratio(unrepaired, base), period
        assert repaired.resyncs_completed >= 1, period
    # ... and at moderate frequency it is near-baseline while the
    # unrepaired transfer blows out by an order of magnitude.
    moderate = rows[0]
    assert _ratio(moderate[2], moderate[1]) < 4.0
    assert _ratio(moderate[4], moderate[1]) > 8.0
