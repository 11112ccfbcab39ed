"""The TCP substrate: Reno vs CUBIC, the no-DRE loss grid, the RTT axis.

Three tables, one question — how much of a delay ratio is the byte
cache and how much is the TCP underneath it:

* **Ablation.**  The authors' 2012 Linux testbed defaulted to CUBIC; our
  substrate defaults to Reno.  If the Fig. 11 shapes agree across both,
  the reproduction's conclusions don't hinge on the CC flavour.
* **No-DRE loss grid** (ROADMAP item 3).  Every ratio in Figs. 10-13 is
  divided by a plain download, so that download is held against its
  closed form (:mod:`repro.verify.tcp_model`) with the RTO ledger beside
  it: what the closed form does not explain is timer wait, and the
  ledger says which kind.
* **RTT axis.**  ``tcp_min_rto`` is 200 ms whatever the path, i.e. 23
  round trips on the 8.5 ms testbed and 2 on a 100 ms one, so the delay
  ratios of Table II are RTT-dependent.
"""

import statistics

from conftest import bench_workers, print_report

from repro.experiments import (ExperimentConfig, parallel_map, run_paired,
                               run_transfer)
from repro.metrics import format_table
from repro.verify.tcp_model import expected_download_s, round_trip_s

LINK_SEEDS = range(12)
GRID_LOSSES = (0.01, 0.02, 0.05, 0.10, 0.15, 0.20)
RTT_SEEDS = range(6)
RTT_DELAYS = (0.0025, 0.025, 0.05)       # bottleneck_delay, one way
RTT_LOSSES = (0.05, 0.10)
RTT_POLICIES = ("cache_flush", "tcp_seq")


def measure():
    rows = []
    for congestion in ("reno", "cubic"):
        for loss in (0.0, 0.02, 0.05):
            baseline = run_transfer(ExperimentConfig(
                policy=None, loss_rate=loss, seed=11,
                tcp_congestion=congestion))
            dre = run_transfer(ExperimentConfig(
                policy="cache_flush", loss_rate=loss, seed=11,
                tcp_congestion=congestion))
            rows.append([
                congestion, f"{loss:.0%}",
                f"{dre.forward_bytes_on_link / baseline.forward_bytes_on_link:.2f}",
                (f"{dre.download_time / baseline.download_time:.2f}"
                 if dre.download_time and baseline.download_time else "-"),
            ])
    return rows


def test_congestion_ablation(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_report("Ablation — Reno vs CUBIC", format_table(
        "cache_flush vs no-DRE ratios under both congestion controls",
        ["cc", "loss", "bytes ratio", "delay ratio"], rows))

    by_key = {(row[0], row[1]): row for row in rows}
    for congestion in ("reno", "cubic"):
        # Shapes hold under both: savings at 0 %, delay > 1 under loss.
        assert float(by_key[(congestion, "0%")][2]) < 0.7
        assert float(by_key[(congestion, "2%")][3]) > 1.0


def baseline_cell(job):
    """One (cc, loss) cell of the no-DRE grid over ``LINK_SEEDS``
    (module-level so it pickles for parallel_map)."""
    congestion, loss = job
    config = ExperimentConfig(policy=None, loss_rate=loss,
                              tcp_congestion=congestion)
    runs = [run_transfer(config.with_updates(seed=seed))
            for seed in LINK_SEEDS]

    def mean(counter):
        return statistics.mean(getattr(run, counter) for run in runs)

    size = runs[0].outcome.expected_size
    return {
        "cc": congestion, "loss": loss,
        "median_s": statistics.median(run.download_time for run in runs),
        "timeouts": mean("server_timeouts"),
        "ledger": (mean("server_timeouts_lost_retransmit"),
                   mean("server_timeouts_no_feedback"),
                   mean("server_timeouts_below_dupthresh")),
        "lost_retransmits": mean("server_lost_retransmits"),
        "closed_form_s": expected_download_s(config, size),
        "with_rto_s": expected_download_s(config, size,
                                          mean("server_timeouts")),
    }


def test_no_dre_loss_grid(benchmark):
    jobs = [(congestion, loss) for congestion in ("reno", "cubic")
            for loss in GRID_LOSSES]
    cells = benchmark.pedantic(
        lambda: parallel_map(baseline_cell, jobs, workers=bench_workers()),
        rounds=1, iterations=1)
    print_report("No-DRE loss grid vs closed form", format_table(
        f"file1, DRE off, link seeds {LINK_SEEDS[0]}-{LINK_SEEDS[-1]}: "
        "median download, RTOs per transfer and why they fired",
        ["cc", "loss", "median s", "RTOs", "lost-retx / no-feedback / "
         "below-dupthresh", "lost retx caught", "closed form s",
         "+ RTOs x 0.2 s", "error"],
        [[cell["cc"], f"{cell['loss']:.0%}", f"{cell['median_s']:.3f}",
          f"{cell['timeouts']:.2f}",
          " / ".join(f"{part:.2f}" for part in cell["ledger"]),
          f"{cell['lost_retransmits']:.1f}",
          f"{cell['closed_form_s']:.3f}", f"{cell['with_rto_s']:.3f}",
          f"{cell['median_s'] / cell['with_rto_s'] - 1:+.1%}"]
         for cell in cells]))

    by_key = {(cell["cc"], cell["loss"]): cell for cell in cells}
    for loss in (0.01, 0.05, 0.10):
        # What is left after the timer waits is the closed form.
        cell = by_key[("reno", loss)]
        assert abs(cell["median_s"] / cell["with_rto_s"] - 1) < 0.20
    # Half of what they were before lost-retransmission detection
    # (4.0 and 18.2 RTOs per transfer).
    assert by_key[("reno", 0.10)]["timeouts"] <= 2.0
    assert by_key[("reno", 0.20)]["timeouts"] <= 9.1


def rtt_cell(job):
    """Median DRE / no-DRE delay ratio of one (delay, loss, policy) cell
    over ``RTT_SEEDS``, each pair on one loss realisation."""
    delay, loss, policy = job
    ratios = []
    for seed in RTT_SEEDS:
        dre, baseline = run_paired(ExperimentConfig(
            policy=policy, loss_rate=loss, seed=seed, bottleneck_delay=delay))
        ratios.append(dre.download_time / baseline.download_time)
    return statistics.median(ratios)


def test_delay_ratio_vs_rtt(benchmark):
    jobs = [(delay, loss, policy) for delay in RTT_DELAYS
            for loss in RTT_LOSSES for policy in RTT_POLICIES]
    ratios = dict(zip(jobs, benchmark.pedantic(
        lambda: parallel_map(rtt_cell, jobs, workers=bench_workers()),
        rounds=1, iterations=1)))
    min_rto = ExperimentConfig().tcp_min_rto
    rows = []
    for delay in RTT_DELAYS:
        rtt = round_trip_s(ExperimentConfig(bottleneck_delay=delay))
        rows.append([f"{rtt * 1000:.1f}", f"{min_rto / rtt:.1f}"]
                    + [f"{ratios[delay, loss, policy]:.2f}"
                       for policy in RTT_POLICIES for loss in RTT_LOSSES])
    print_report("Delay ratio vs RTT", format_table(
        f"file1 delay ratio vs no-DRE, median of link seeds "
        f"{RTT_SEEDS[0]}-{RTT_SEEDS[-1]} (paper, Table II: CF 1.64 / 1.84, "
        "TS 2.88 / 3.87)",
        ["RTT ms", "min_rto in RTTs"]
        + [f"{policy} {loss:.0%}"
           for policy in RTT_POLICIES for loss in RTT_LOSSES], rows))

    # A fixed 200 ms timer costs fewer round trips on a longer path.
    for loss in RTT_LOSSES:
        assert (ratios[RTT_DELAYS[-1], loss, "cache_flush"]
                < ratios[RTT_DELAYS[0], loss, "cache_flush"])
