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

from repro.experiments import ExperimentConfig, SweepSpec, run_sweep
from repro.metrics import format_table
from repro.verify.tcp_model import expected_download_s, round_trip_s

LINK_SEEDS = range(12)
GRID_LOSSES = (0.01, 0.02, 0.05, 0.10, 0.15, 0.20)
RTT_SEEDS = range(6)
RTT_DELAYS = (0.0025, 0.025, 0.05)       # bottleneck_delay, one way
RTT_LOSSES = (0.05, 0.10)
RTT_POLICIES = ("cache_flush", "tcp_seq")


def measure():
    swept = run_sweep(SweepSpec(
        base=ExperimentConfig(policy="cache_flush", seed=11),
        grid={"tcp_congestion": ["reno", "cubic"],
              "loss_rate": [0.0, 0.02, 0.05]},
        paired_baseline=True))
    rows = []
    for cell in swept:
        loss = cell.params["loss_rate"]
        point = cell.ratio_point(loss)
        rows.append([cell.params["tcp_congestion"], f"{loss:.0%}",
                     f"{point.bytes_ratio:.2f}",
                     ("-" if point.delay_ratio is None
                      else f"{point.delay_ratio:.2f}")])
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


def loss_grid():
    """The no-DRE (cc, loss) grid over ``LINK_SEEDS``, one summary per
    (cc, loss) point."""
    base = ExperimentConfig(policy=None)
    swept = run_sweep(SweepSpec(
        base=base,
        grid={"tcp_congestion": ["reno", "cubic"],
              "loss_rate": list(GRID_LOSSES)},
        seeds=LINK_SEEDS), workers=bench_workers())
    cells = []
    for (congestion, loss), group in swept.pooled("tcp_congestion",
                                                  "loss_rate").items():
        runs = [cell.result for cell in group]

        def mean(counter):
            return statistics.mean(getattr(run, counter) for run in runs)

        config = base.with_updates(tcp_congestion=congestion, loss_rate=loss)
        size = runs[0].outcome.expected_size
        cells.append({
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
        })
    return cells


def test_no_dre_loss_grid(benchmark):
    cells = benchmark.pedantic(loss_grid, rounds=1, iterations=1)
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


def rtt_ratios():
    """Median DRE / no-DRE delay ratio per (delay, loss, policy) point
    over ``RTT_SEEDS``, each pair on one loss realisation."""
    swept = run_sweep(SweepSpec(
        base=ExperimentConfig(),
        grid={"bottleneck_delay": list(RTT_DELAYS),
              "loss_rate": list(RTT_LOSSES), "policy": list(RTT_POLICIES)},
        seeds=RTT_SEEDS, paired_baseline=True), workers=bench_workers())
    ratios = {}
    for (delay, loss, policy), group in swept.pooled(
            "bottleneck_delay", "loss_rate", "policy").items():
        ratios[delay, loss, policy] = statistics.median(
            cell.ratio_point(loss).delay_ratio for cell in group)
    return ratios


def test_delay_ratio_vs_rtt(benchmark):
    ratios = benchmark.pedantic(rtt_ratios, rounds=1, iterations=1)
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
