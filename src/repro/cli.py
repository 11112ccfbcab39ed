"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
run        one transfer through the Fig. 3 testbed, with/without DRE
sweep      loss-rate sweep for a set of policies, printed as a table
mobility   the §II handoff experiment in any gateway mode
artifact   regenerate a paper artifact (table1, figure6, ..., table2)
corpus     list or describe the synthetic corpus objects
policies   list the available encoding policies
trace      dependency-graph analysis of one run (Fig. 14-style)
timeline   one telemetry-instrumented run rendered as ASCII time
           series (cwnd, RTO, perceived loss, cache, queues) plus the
           flight-recorder dump on stall/watchdog/time-limit
verify     differential runner: poly-vs-rabin fingerprinters, serial
           vs parallel sweeps, resilience-on vs off must all agree
fuzz       randomised scenarios + scripted faults with the invariant
           oracles armed; shrinks any violation to a minimal
           replayable JSON case
chaos      composable fault campaigns (link flaps, loss bursts,
           crashes, blackouts, memory pressure) with steady-state SLO
           oracles and a resilience scorecard; failed campaigns replay
           byte-for-byte from their repro.chaos/v1 JSON
lint       static architecture lint: layering DAG, determinism,
           hot-path discipline and robustness hygiene, with a
           committed ratcheting baseline
flame      one span-traced run rendered as a self/total-time flame
           tree (ASCII + folded-stacks output)
spans      print one causal chain end-to-end from a spans/v1 export
           (encoder decision -> wire -> decoder outcome, following
           cross-trace links; finds the §IV-B livelock by default)
bench      benchmark utilities; `bench diff` is the regression
           sentinel over committed BENCH_*.json history
serve-sim  population serving simulation: Zipf catalog + Poisson
           sessions as concurrent flows through one shared sharded
           byte cache, reporting warm-up-excluded steady-state hit
           ratio / bytes saved / p50-p99 download times
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from .core.policies import ENCODER_POLICIES
from .experiments import ExperimentConfig, run_transfer
from .experiments import scenarios
from .experiments.mobility import MobilityConfig, run_mobility
from .metrics import format_table
from .workload import corpus_names, corpus_object

ARTIFACTS = {
    "table1": lambda: scenarios.table1(),
    "figure6": lambda: scenarios.figure6(),
    "figure10": lambda: scenarios.figure10_11(),
    "figure11": lambda: scenarios.figure10_11(),
    "figure12": lambda: scenarios.figure12(),
    "figure13": lambda: scenarios.figure13(),
    "table2": lambda: scenarios.table2(),
    "headline": lambda: scenarios.headline(),
    "ablation": lambda: scenarios.ablation_packet_size(),
    "extensions": lambda: scenarios.extensions(),
    "impairments": lambda: scenarios.impairment_matrix(),
    "stall-scaling": lambda: scenarios.stall_scaling(),
}


#: "classic" is the paper's name for the first-generation byte caching
#: scheme, which the repo implements as the "naive" policy; "none"
#: disables DRE.
POLICY_ALIASES = {"classic": "naive", "none": None}

#: Bounded stall settings for the single-run diagnostics (trace,
#: timeline, spans, flame): a naive-policy livelock exhausts 8 retries
#: at <= 2 s RTO well inside the 120 s limit instead of grinding
#: through the full defaults.
BOUNDED_STALL: Dict[str, Any] = {"time_limit": 120.0, "tcp_max_retries": 8,
                                 "tcp_max_rto": 2.0}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Byte caching in wireless networks (ICDCS 2012) — "
                    "reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run one transfer")
    run_cmd.add_argument("--policy", default="cache_flush",
                         help="encoding policy, or 'none' to disable DRE")
    run_cmd.add_argument("--k", type=int, default=None,
                         help="k for the k_distance policy")
    run_cmd.add_argument("--loss", type=_percent, default="0",
                         help="packet loss rate in percent (e.g. 5)")
    run_cmd.add_argument("--corrupt", type=_percent, default="0",
                         help="corruption rate in percent")
    run_cmd.add_argument("--reorder", type=_percent, default="0",
                         help="re-ordering rate in percent")
    run_cmd.add_argument("--corpus", default="file1",
                         choices=corpus_names())
    run_cmd.add_argument("--size", type=int, default=0,
                         help="object size in bytes (0 = corpus default)")
    run_cmd.add_argument("--seed", type=int, default=11)
    run_cmd.add_argument("--baseline", action="store_true",
                         help="also run the no-DRE baseline and print ratios")
    run_cmd.add_argument("--profile", action="store_true",
                         help="also print the codec stage timings and "
                              "the anchor-memo counters of the run")

    sweep_cmd = sub.add_parser("sweep", help="loss sweep over policies")
    sweep_cmd.add_argument("--policies", default="cache_flush,tcp_seq",
                           help="comma-separated policy names")
    sweep_cmd.add_argument("--losses", type=_percents, default="0,1,2,5,10",
                           help="comma-separated loss rates in percent")
    sweep_cmd.add_argument("--corpus", default="file1",
                           choices=corpus_names())
    sweep_cmd.add_argument("--seed", type=int, default=11)
    sweep_cmd.add_argument("--seeds", default=None,
                           help="comma-separated replicate seeds "
                                "(overrides --seed)")
    sweep_cmd.add_argument("--workers", type=int, default=None,
                           help="process-pool size (default: serial)")
    sweep_cmd.add_argument("--out", default=None,
                           help="write a BENCH_sweep.json file here")
    sweep_cmd.add_argument("--telemetry-out", default=None,
                           help="record per-cell telemetry and write a "
                                "bench_telemetry/v1 export here "
                                "(.jsonl = one cell per line)")

    mob_cmd = sub.add_parser("mobility", help="§II handoff experiment")
    mob_cmd.add_argument("--mode", default="ip-dre",
                         choices=["none", "ip-dre", "tcp-proxy"])
    mob_cmd.add_argument("--handoff", type=float, default=0.25,
                         help="handoff time in seconds")
    mob_cmd.add_argument("--loss", type=_percent, default="1",
                         help="path-A loss rate in percent")
    mob_cmd.add_argument("--seed", type=int, default=11)

    art_cmd = sub.add_parser("artifact",
                             help="regenerate a paper table/figure")
    art_cmd.add_argument("name", choices=sorted(ARTIFACTS))

    corpus_cmd = sub.add_parser("corpus", help="inspect corpus objects")
    corpus_cmd.add_argument("name", nargs="?", default=None,
                            choices=[None] + corpus_names())

    trace_cmd = sub.add_parser(
        "trace", help="run a transfer and print its dependency graph "
                      "(Fig. 14-style analysis)")
    trace_cmd.add_argument("--policy", default="naive",
                           choices=sorted(ENCODER_POLICIES))
    trace_cmd.add_argument("--loss", type=_percent, default="1",
                           help="loss rate in percent")
    trace_cmd.add_argument("--corpus", default="file1",
                           choices=corpus_names())
    trace_cmd.add_argument("--size", type=int, default=60 * 1460)
    trace_cmd.add_argument("--seed", type=int, default=11)
    trace_cmd.add_argument("--rows", type=int, default=25,
                           help="how many packets of the trace to print")
    trace_cmd.add_argument("--out", default=None,
                           help="also write the run's spans/v1 export to "
                                "this file (read by spans/flame --from)")

    timeline_cmd = sub.add_parser(
        "timeline", help="run one telemetry-instrumented transfer and "
                         "render its time series + flight recorder")
    timeline_cmd.add_argument(
        "--policy", default="classic",
        choices=sorted(ENCODER_POLICIES) + list(POLICY_ALIASES),
        help="encoding policy ('classic' = the paper's §IV naive "
             "scheme, 'none' disables DRE)")
    timeline_cmd.add_argument("--loss", type=_percent, default="5",
                              help="loss rate in percent")
    timeline_cmd.add_argument("--corpus", default="file1",
                              choices=corpus_names())
    timeline_cmd.add_argument("--size", type=int, default=60 * 1460,
                              help="object size in bytes")
    timeline_cmd.add_argument("--seed", type=int, default=11)
    timeline_cmd.add_argument("--resilience", action="store_true",
                              help="arm the gateway resilience layer "
                                   "(adds epoch/resync series)")
    timeline_cmd.add_argument("--series", default=None,
                              help="comma-separated substrings selecting "
                                   "which series to render (default: "
                                   "cwnd, RTO, in-flight, perceived loss, "
                                   "cache entries, queue depth)")
    timeline_cmd.add_argument("--width", type=int, default=64,
                              help="chart width in columns")
    timeline_cmd.add_argument("--height", type=int, default=8,
                              help="chart height in rows")
    timeline_cmd.add_argument("--events", type=int, default=20,
                              help="flight-recorder rows to print")
    timeline_cmd.add_argument("--out", default=None,
                              help="also write the raw telemetry/v1 "
                                   "export as JSON to this file")

    verify_cmd = sub.add_parser(
        "verify", help="differential runner: paired executions that "
                       "must agree (fingerprinters, sweep parallelism, "
                       "resilience layer)")
    verify_cmd.add_argument("--scale", default="smoke",
                            choices=["smoke", "headline"],
                            help="workload size: 'smoke' for seconds, "
                                 "'headline' for the paper-scale object "
                                 "(CI)")

    fuzz_cmd = sub.add_parser(
        "fuzz", help="randomised scenario fuzzing with the invariant "
                     "oracles armed")
    fuzz_cmd.add_argument("--seed", type=int, default=7,
                          help="root seed; case i of seed s is identical "
                               "on every machine")
    fuzz_cmd.add_argument("--iterations", type=int, default=100)
    fuzz_cmd.add_argument("--out-dir", default=None,
                          help="write shrunk violation cases as JSON "
                               "files into this directory")
    fuzz_cmd.add_argument("--replay", default=None, metavar="CASE.json",
                          help="re-run a saved case file instead of "
                               "generating new ones")
    fuzz_cmd.add_argument("--inject-bug", default=None,
                          choices=["tcp_seq_gate", "cache_flush_gate",
                                   "k_distance_gate"],
                          help="deliberately disable one policy's safety "
                               "gate (the matching oracle must trip; "
                               "exercises find+shrink+replay)")

    chaos_cmd = sub.add_parser(
        "chaos", help="fault campaigns with steady-state SLO oracles "
                      "and a resilience scorecard")
    chaos_sub = chaos_cmd.add_subparsers(dest="chaos_command",
                                         required=True)
    chaos_sub.add_parser("list", help="list the canonical campaigns")
    chaos_run = chaos_sub.add_parser(
        "run", help="run a canonical campaign and print its scorecard")
    chaos_run.add_argument("name", help="campaign name (see: chaos list)")
    chaos_run.add_argument("--scale", default="smoke",
                           choices=["smoke", "full"],
                           help="workload size: 'smoke' for seconds, "
                                "'full' for the bigger object + extra "
                                "seed")
    chaos_run.add_argument("--policies", default=None, metavar="P1,P2",
                           help="comma-separated policy list (default: "
                                "the three robust §V policies)")
    chaos_run.add_argument("--no-resilience", action="store_true",
                           help="disarm the resilience layer (the "
                                "negative control: oracles should fail)")
    chaos_run.add_argument("--workers", type=int, default=None,
                           help="run campaign cells on a process pool")
    chaos_run.add_argument("--out", default=None, metavar="REPORT.json",
                           help="write the repro.chaos/v1 scorecard "
                                "to this file")
    chaos_replay = chaos_sub.add_parser(
        "replay", help="re-run a saved scorecard and check it "
                       "reproduces byte-for-byte")
    chaos_replay.add_argument("report", metavar="REPORT.json",
                              help="a repro.chaos/v1 file written by "
                                   "'chaos run --out'")
    chaos_replay.add_argument("--workers", type=int, default=None)

    lint_cmd = sub.add_parser(
        "lint", help="architecture lint: layering DAG, determinism, "
                     "process-boundary purity, hot-path discipline, "
                     "robustness hygiene")
    lint_cmd.add_argument("--root", default=".",
                          help="repo root holding pyproject.toml "
                               "(default: cwd)")
    lint_cmd.add_argument("--format", default="text",
                          choices=["text", "json"],
                          dest="fmt", help="report format (json emits the "
                                           "repro.lint/v1 document)")
    lint_cmd.add_argument("--select", default=None, metavar="RULE,...",
                          help="run only these rule ids or families "
                               "(e.g. layering,determinism-wallclock)")
    lint_cmd.add_argument("--baseline", default=None, metavar="PATH",
                          help="baseline file (default: [tool.repro-lint] "
                               "baseline key)")
    lint_cmd.add_argument("--no-baseline", action="store_true",
                          help="ignore the baseline: report every finding "
                               "as active")
    lint_cmd.add_argument("--write-baseline", action="store_true",
                          help="rewrite the baseline from current "
                               "findings (ratchet: prunes stale entries)")
    lint_cmd.add_argument("--out", default=None,
                          help="also write the repro.lint/v1 JSON report "
                               "to this file")
    lint_cmd.add_argument("--show-suppressed", action="store_true",
                          help="include pragma-suppressed findings in "
                               "text output")

    def add_span_run_args(cmd) -> None:
        """Shared args for commands that run one span-traced transfer."""
        cmd.add_argument(
            "--policy", default="classic",
            choices=sorted(ENCODER_POLICIES) + list(POLICY_ALIASES),
            help="encoding policy ('classic' = the paper's §IV naive "
                 "scheme, 'none' disables DRE)")
        cmd.add_argument("--loss", type=_percent, default="1",
                         help="loss rate in percent")
        cmd.add_argument("--corpus", default="file1",
                         choices=corpus_names())
        cmd.add_argument("--size", type=int, default=60 * 1460,
                         help="object size in bytes")
        cmd.add_argument("--seed", type=int, default=11)
        cmd.add_argument("--resilience", action="store_true",
                         help="arm the gateway resilience layer")
        cmd.add_argument("--sample", type=int, default=1,
                         help="trace 1 in N flows (default: all)")
        cmd.add_argument("--from", dest="from_file", default=None,
                         metavar="SPANS.json",
                         help="read an existing spans/v1 export instead "
                              "of running a transfer")
        cmd.add_argument("--out", default=None, metavar="SPANS.json",
                         help="write the spans/v1 export to this file")

    flame_cmd = sub.add_parser(
        "flame", help="span-traced run rendered as a flame tree "
                      "(self/total time per pipeline stage)")
    add_span_run_args(flame_cmd)
    flame_cmd.add_argument("--weight", default="wall",
                           choices=["wall", "sim", "count"],
                           help="node weight: host wall time, sim time, "
                                "or span count")
    flame_cmd.add_argument("--depth", type=int, default=None,
                           help="maximum stack depth to render")
    flame_cmd.add_argument("--min-frac", type=float, default=0.0,
                           dest="min_frac",
                           help="hide nodes below this fraction of the "
                                "total weight")
    flame_cmd.add_argument("--folded", default=None, metavar="FILE",
                           help="also write folded-stacks lines "
                                "(flamegraph.pl / speedscope input)")

    spans_cmd = sub.add_parser(
        "spans", help="print one causal chain end-to-end "
                      "(default: the §IV-B livelock suspect)")
    spans_cmd.add_argument("trace", nargs="?", type=int, default=None,
                           help="trace id to walk (default: auto-detect "
                                "the circular-dependency chain)")
    add_span_run_args(spans_cmd)
    spans_cmd.add_argument("--list", action="store_true",
                           help="list traces instead of walking one")
    spans_cmd.add_argument("--hops", type=int, default=6,
                           help="cross-trace hops to follow")

    bench_cmd = sub.add_parser(
        "bench", help="benchmark utilities (regression sentinel)")
    bench_sub = bench_cmd.add_subparsers(dest="bench_command",
                                         required=True)
    bench_diff = bench_sub.add_parser(
        "diff", help="compare current BENCH_*.json records against "
                     "their committed history; non-zero exit on a "
                     "statistically significant regression")
    bench_diff.add_argument("--root", default=".",
                            help="repo root holding pyproject.toml "
                                 "(default: cwd)")
    bench_diff.add_argument("--dir", default=None, metavar="PATH",
                            help="directory holding the BENCH_*.json "
                                 "files (default: --root)")
    bench_diff.add_argument("--window", type=int, default=None,
                            help="history records to compare against "
                                 "(default: [tool.repro-bench] window)")
    bench_diff.add_argument("--out", default=None, metavar="REPORT.json",
                            help="write the bench_diff/v1 report")

    serve_cmd = sub.add_parser(
        "serve-sim", help="population serving simulation over a shared "
                          "sharded byte cache")
    serve_cmd.add_argument("--users", type=int, default=50,
                           help="subscriber population size")
    serve_cmd.add_argument("--contents", type=int, default=200,
                           help="catalog size (Zipf-ranked)")
    serve_cmd.add_argument("--alpha", type=float, default=0.8,
                           help="Zipf skew of content popularity")
    serve_cmd.add_argument("--mean-object", type=int, default=8192,
                           help="mean object size in bytes")
    serve_cmd.add_argument("--cache-mb", type=float, default=4.0,
                           help="shared cache budget per direction (MB)")
    serve_cmd.add_argument("--shards", type=int, default=8,
                           help="cache shard count (0 = unsharded)")
    serve_cmd.add_argument("--admission", type=float, default=1.0,
                           help="probabilistic admission fraction (0,1]")
    serve_cmd.add_argument("--policy", default="cache_flush",
                           help="encoding policy for the gateway pair")
    serve_cmd.add_argument("--loss", type=_percent, default="1",
                           help="bottleneck loss rate in percent")
    serve_cmd.add_argument("--arrival-rate", type=float, default=25.0,
                           help="user arrivals per second (Poisson)")
    serve_cmd.add_argument("--requests-per-user", type=float, default=2.0,
                           help="geometric mean session length")
    serve_cmd.add_argument("--max-requests", type=int, default=None,
                           help="cap the schedule (soak-style runs)")
    serve_cmd.add_argument("--seed", type=int, default=7)
    serve_cmd.add_argument("--verify", action="store_true",
                           help="arm per-flow content checks and the "
                                "sharded-cache invariant oracle")
    serve_cmd.add_argument("--json", action="store_true",
                           help="print the full serving/v1 report")
    serve_cmd.add_argument("--out", default=None, metavar="REPORT.json",
                           help="write the serving/v1 report here")

    sub.add_parser("policies", help="list encoding policies")
    return parser


def _percent(text: str) -> float:
    """argparse type: a percentage in [0, 100], returned as a rate."""
    value = float(text)
    if not 0.0 <= value <= 100.0:  # NaN fails the test too
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a percentage in [0, 100]")
    return value / 100.0


def _percents(text: str) -> List[float]:
    """argparse type: comma-separated percentages, returned as rates."""
    rates = [_percent(item) for item in text.split(",") if item.strip()]
    if not rates:
        raise argparse.ArgumentTypeError("no loss rate given")
    return rates


def _known_policies(names: List[str]) -> bool:
    """True when ``names`` is a non-empty list of encoder policies.

    Otherwise prints why to stderr; the command then exits 2.
    """
    if not names:
        print("no policy given", file=sys.stderr)
        return False
    for name in names:
        if name not in ENCODER_POLICIES:
            print(f"unknown policy {name!r}; try: "
                  f"{', '.join(sorted(ENCODER_POLICIES))}", file=sys.stderr)
            return False
    return True


def cmd_run(args) -> int:
    policy = None if args.policy in ("none", "") else args.policy
    if policy is not None and not _known_policies([policy]):
        return 2
    kwargs = {"k": args.k} if args.k is not None else {}
    config = ExperimentConfig(
        corpus=args.corpus, file_size=args.size, policy=policy,
        policy_kwargs=kwargs, loss_rate=args.loss,
        corrupt_rate=args.corrupt,
        reorder_rate=args.reorder, seed=args.seed,
        profile=args.profile)
    result = run_transfer(config)
    rows = [
        ["completed", result.completed],
        ["bytes received", f"{result.outcome.bytes_received:,}"],
        ["download time",
         "-" if result.download_time is None
         else f"{result.download_time:.3f}s"],
        ["bytes on link (fwd)", f"{result.forward_bytes_on_link:,}"],
        ["perceived loss", f"{result.perceived_loss_rate:.1%}"],
        ["server retransmissions", result.server_retransmissions],
        ["  of which SACK found lost again",
         result.server_lost_retransmits],
        ["server timeouts", result.server_timeouts],
        ["  lost retx / no feedback / below dupthresh",
         f"{result.server_timeouts_lost_retransmit} / "
         f"{result.server_timeouts_no_feedback} / "
         f"{result.server_timeouts_below_dupthresh}"],
    ]
    if args.baseline:
        baseline = run_transfer(config.with_updates(policy=None,
                                                    policy_kwargs={}))
        rows.append(["bytes ratio vs no-DRE",
                     f"{result.forward_bytes_on_link / baseline.forward_bytes_on_link:.3f}"])
        if result.download_time and baseline.download_time:
            rows.append(["delay ratio vs no-DRE",
                         f"{result.download_time / baseline.download_time:.3f}"])
    print(format_table(
        f"{args.corpus} @ {args.loss * 100:.3g}% loss, policy={args.policy}",
        ["metric", "value"], rows))
    if result.profile is not None:
        memo = result.profile["anchor_memo"]
        print(format_table(
            "codec stages", ["stage", "seconds", "calls", "us/call"],
            [[stage, f"{entry['seconds']:.4f}", int(entry["calls"]),
              f"{entry['seconds'] / entry['calls'] * 1e6:.2f}"]
             for stage, entry in result.profile.items()
             if stage != "anchor_memo"]))
        print(format_table(
            "anchor memo (this run)",
            ["hits", "misses", "evictions", "bytes held"],
            [[memo["hits"], memo["misses"], memo["evictions"],
              f"{memo['bytes']:,}"]]))
    return 0


def cmd_sweep(args) -> int:
    from .experiments.sweep import (SweepSpec, run_sweep, write_bench_json,
                                    write_telemetry_export)

    policies = [name.strip() for name in args.policies.split(",") if name.strip()]
    if not _known_policies(policies):
        return 2
    losses = args.losses
    seeds = ([int(x) for x in args.seeds.split(",") if x.strip()]
             if args.seeds else [args.seed])
    pairs = [(policy, {"k": 8} if policy == "k_distance" else {})
             for policy in policies]
    spec = SweepSpec(
        base=ExperimentConfig(corpus=args.corpus,
                              telemetry=bool(args.telemetry_out)),
        grid={"policy,policy_kwargs": pairs, "loss_rate": losses},
        seeds=tuple(seeds), paired_baseline=True)
    swept = run_sweep(spec, workers=args.workers)

    def mean(values):
        return sum(values) / len(values) if values else None

    cells = iter(swept)
    rows = []
    for policy, _kwargs in pairs:
        for loss in losses:
            group = [next(cells) for _ in seeds]
            points = [cell.ratio_point(loss) for cell in group]
            delays = [p.delay_ratio for p in points
                      if p.delay_ratio is not None]
            delay = mean(delays)
            rows.append([
                policy, f"{loss:.0%}",
                "yes" if all(c.result.completed for c in group) else "STALL",
                f"{mean([p.bytes_ratio for p in points]):.2f}",
                "-" if delay is None else f"{delay:.2f}",
                f"{mean([c.result.perceived_loss_rate for c in group]):.1%}"])
    print(format_table(
        f"loss sweep on {args.corpus} (ratios vs no-DRE baseline, "
        f"{len(seeds)} seed{'s' if len(seeds) > 1 else ''})",
        ["policy", "loss", "done", "bytes ratio", "delay ratio",
         "perceived"], rows))
    print(f"cells: {len(swept)}  simulated: {swept.executed}  "
          f"wall-clock: {swept.wall_clock:.1f}s")
    if args.out:
        write_bench_json(swept, args.out, name=f"sweep-{args.corpus}")
        print(f"wrote {args.out}")
    if args.telemetry_out:
        payload = write_telemetry_export(swept, args.telemetry_out,
                                         name=f"sweep-{args.corpus}")
        print(f"wrote {args.telemetry_out} "
              f"({payload['summary']['with_telemetry']} cells)")
    return 0


def cmd_mobility(args) -> int:
    result = run_mobility(MobilityConfig(
        mode=args.mode, handoff_at=args.handoff,
        loss_rate_a=args.loss, seed=args.seed))
    print(format_table(
        f"mobility handoff at t={args.handoff}s, mode={args.mode}",
        ["metric", "value"],
        [["outcome", "completed" if result.completed else "STALLED"],
         ["bytes received",
          f"{result.outcome.bytes_received:,} / "
          f"{result.outcome.expected_size:,}"],
         ["bytes on path A", f"{result.bytes_path_a:,}"],
         ["bytes on path B", f"{result.bytes_path_b:,}"]]))
    return 0


def cmd_artifact(args) -> int:
    result = ARTIFACTS[args.name]()
    if args.name == "figure10":
        print(result.report_bytes())
    elif args.name == "figure11":
        print(result.report_delay())
    else:
        print(result.report())
    return 0


def cmd_corpus(args) -> int:
    if args.name is None:
        print(format_table("corpus objects", ["name"],
                           [[name] for name in corpus_names()]))
        return 0
    data = corpus_object(args.name)
    ratio = scenarios.offline_compression_ratio(data)
    print(format_table(
        f"corpus object {args.name!r}",
        ["metric", "value"],
        [["size", f"{len(data):,} bytes"],
         ["offline compression ratio", f"{ratio:.3f}"],
         ["byte savings", f"{1 - ratio:.1%}"]]))
    return 0


def cmd_trace(args) -> int:
    from .metrics.depgraph import format_dependency_trace, graph_from_spans

    config = ExperimentConfig(
        corpus=args.corpus, file_size=args.size, policy=args.policy,
        policy_kwargs={}, loss_rate=args.loss, seed=args.seed,
        **BOUNDED_STALL,
        # The dependency graph is read off the span export, so every
        # flow is traced and no span may be dropped (the 120 s time
        # limit bounds the log).
        spans=True, spans_kwargs={"trace_sample": 1,
                                  "max_spans": sys.maxsize})
    result = run_transfer(config)
    doc = result.spans
    graph, lost = graph_from_spans(doc)
    dead = graph.undecodable_closure(lost) | lost
    print(format_dependency_trace(graph, dead, max_rows=args.rows))
    cycles = graph.segment_cycles()
    print()
    print(format_table(
        "dependency analysis", ["metric", "value"],
        [["transfer completed", result.completed],
         ["encoded packets", len(graph.sent)],
         ["average dependency degree", f"{graph.average_degree():.2f}"],
         ["lost/undelivered packets", len(lost)],
         ["undecodable closure", len(dead) - len(lost)],
         ["loss amplification", f"{graph.loss_amplification(lost):.2f}x"],
         ["segment-level cycles (§IV-B)", len(cycles)],
         ["self-dependency livelock", graph.has_self_dependency()]]))
    if args.out:
        print()
        _write_spans(doc, args.out)
    return 0


#: Default substring filters for ``repro timeline`` — the trajectories
#: that explain a stall: window collapse, RTO backoff, perceived loss
#: growth, cache occupancy, and bottleneck queueing.
_TIMELINE_DEFAULT_SERIES = ("tcp.cwnd", "tcp.rto", "tcp.inflight",
                            "dre.perceived_loss", "cache.entries",
                            "link.queue_depth")


def cmd_timeline(args) -> int:
    from .metrics.report import format_flight_recorder, format_timeseries

    policy = POLICY_ALIASES.get(args.policy, args.policy)
    config = ExperimentConfig(
        corpus=args.corpus, file_size=args.size, policy=policy,
        policy_kwargs={}, loss_rate=args.loss, seed=args.seed,
        resilience=args.resilience, telemetry=True, **BOUNDED_STALL)
    result = run_transfer(config)
    telemetry = result.telemetry
    sampler = telemetry["sampler"]

    print(format_table(
        f"timeline: {args.corpus} @ {args.loss * 100:.3g}% loss, "
        f"policy={args.policy}",
        ["metric", "value"],
        [["run ended", telemetry["reason"]],
         ["completed", result.completed],
         ["sim time", f"{result.sim_time:.3f}s"],
         ["perceived loss", f"{result.perceived_loss_rate:.1%}"],
         ["samples", len(sampler["times"])],
         # What a sampled run pays for: one gauge read per cell.
         ["gauge reads", f"{len(sampler['times'])} samples x "
          f"{len(sampler['series'])} gauges = "
          f"{len(sampler['times']) * len(sampler['series'])}"],
         ["sample interval", f"{sampler['interval']:.3g}s"
          + (f" (decimated x{sampler['decimations']})"
             if sampler["decimations"] else "")],
         ["flight-recorder events", telemetry["flight_recorder_events_seen"]]]))

    filters = ([part.strip() for part in args.series.split(",")
                if part.strip()] if args.series
               else list(_TIMELINE_DEFAULT_SERIES))
    shown = 0
    for key, values in sampler["series"].items():
        if not any(part in key for part in filters):
            continue
        print()
        print(format_timeseries(key, sampler["times"], values,
                                width=args.width, height=args.height))
        shown += 1
    if not shown:
        print("\nno series matched "
              f"{filters}; available: {', '.join(sampler['series'])}")

    events = telemetry["flight_recorder"]
    if events:
        print()
        print(format_flight_recorder(
            events[-args.events:],
            title=f"Flight recorder (last {min(args.events, len(events))} "
                  f"of {telemetry['flight_recorder_events_seen']} events, "
                  f"dumped on {telemetry['reason']})"))
    elif telemetry["reason"] == "completed":
        print("\ntransfer completed cleanly; flight recorder not dumped "
              "(it only dumps on stall, watchdog trip, or time limit)")

    if args.out:
        import json as _json
        with open(args.out, "w", encoding="utf-8") as handle:
            _json.dump(telemetry, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote telemetry/v1 export to {args.out}")
    return 0


def cmd_verify(args) -> int:
    from .verify.differential import run_differential

    results = run_differential(args.scale, log=print)
    mismatches = [r for r in results if not r.matched]
    print()
    if mismatches:
        print(f"FAILED: {len(mismatches)}/{len(results)} comparisons "
              f"mismatched")
        return 1
    print(f"all {len(results)} differential comparisons agree "
          f"(scale={args.scale})")
    return 0


def cmd_fuzz(args) -> int:
    import os

    from .verify.fuzz import (case_from_json, case_to_json, run_campaign,
                              run_case)

    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as handle:
            import json as _json
            payload = _json.load(handle)
        case = case_from_json(_json.dumps(payload))
        expected = payload.get("violation")
        outcome = run_case(case)
        got = outcome.violation
        if got is not None:
            print(f"violation [{got['oracle']}]: {got['message']}")
        else:
            print(f"no violation (completed={outcome.completed}, "
                  f"stalled={outcome.stalled}, "
                  f"sim_time={outcome.sim_time:.2f}s)")
        matches = ((got is None) == (expected is None)
                   and (expected is None
                        or got["oracle"] == expected["oracle"]))
        print("replay MATCHES the recorded outcome" if matches
              else "replay DIVERGES from the recorded outcome")
        return 0 if matches else 1

    print(f"fuzzing: seed={args.seed}, {args.iterations} iterations"
          + (f", injected bug: {args.inject_bug}" if args.inject_bug
             else ""))
    result = run_campaign(args.seed, args.iterations,
                          inject_bug=args.inject_bug, log=print)
    if result.violations == 0:
        print(f"{result.iterations} cases, no invariant violations")
        # Without a deliberate bug, clean is the expected outcome; with
        # one, the oracles failed to catch it.
        return 1 if args.inject_bug else 0

    print(f"{result.violations} violation(s); first at case "
          f"{result.first_violation_index}")
    if result.shrunk_case is not None and args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(
            args.out_dir,
            f"case-seed{args.seed}-{result.first_violation_index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(case_to_json(result.shrunk_case,
                                      result.shrunk_violation))
            handle.write("\n")
        print(f"wrote shrunk case to {path} "
              f"(replay with: repro fuzz --replay {path})")
    return 0 if args.inject_bug else 1


def cmd_chaos(args) -> int:
    from .chaos import (CAMPAIGNS, CHAOS_POLICIES, canonical_campaign,
                        format_scorecard, replay_report, run_campaign,
                        validate_chaos_report)

    if args.chaos_command == "list":
        rows = [[name, CAMPAIGNS[name]("smoke").description]
                for name in sorted(CAMPAIGNS)]
        print(format_table("canonical chaos campaigns",
                           ["name", "description"], rows))
        return 0

    if args.chaos_command == "replay":
        with open(args.report, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        validate_chaos_report(doc)
        report, matches = replay_report(doc, workers=args.workers)
        print(format_scorecard(report))
        print("replay MATCHES the recorded scorecard" if matches
              else "replay DIVERGES from the recorded scorecard")
        return 0 if matches else 1

    campaign = canonical_campaign(args.name, scale=args.scale)
    policies = (tuple(p.strip() for p in args.policies.split(",")
                      if p.strip())
                if args.policies else CHAOS_POLICIES)
    report = run_campaign(campaign, policies=policies,
                          resilience=not args.no_resilience,
                          workers=args.workers)
    payload = report.to_dict()
    validate_chaos_report(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote scorecard to {args.out} "
              f"(replay with: repro chaos replay {args.out})")
    print(format_scorecard(report))
    return 0 if report.passed else 1


def cmd_lint(args) -> int:
    from pathlib import Path

    from .analysis import (format_text, rewrite_baseline, run_lint,
                           select_rules, validate_lint_report)

    root = Path(args.root).resolve()
    select = ([token.strip() for token in args.select.split(",")
               if token.strip()] if args.select else None)
    try:
        select_rules(select)  # fail fast on unknown selectors
    except ValueError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    baseline_path = Path(args.baseline) if args.baseline else None
    report = run_lint(root, select=select, baseline_path=baseline_path,
                      use_baseline=not args.no_baseline)

    if args.write_baseline:
        count = rewrite_baseline(root, report, baseline_path=baseline_path)
        target = baseline_path or "the configured baseline"
        print(f"baseline rewritten: {count} finding(s) recorded in {target}")
        return 0

    payload = report.to_dict()
    validate_lint_report(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(format_text(report,
                          verbose_suppressed=args.show_suppressed))
    return report.exit_code


def _write_spans(doc: dict, path: str) -> None:
    """Write a spans/v1 export in the form ``--from FILE`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote spans/v1 export to {path}")


def _spans_doc(args) -> dict:
    """A spans/v1 export: from ``--from FILE`` or by running a transfer."""
    if args.from_file:
        with open(args.from_file, "r", encoding="utf-8") as handle:
            return json.load(handle)
    policy = POLICY_ALIASES.get(args.policy, args.policy)
    config = ExperimentConfig(
        corpus=args.corpus, file_size=args.size, policy=policy,
        policy_kwargs={}, loss_rate=args.loss, seed=args.seed,
        resilience=args.resilience,
        spans=True, spans_kwargs={"trace_sample": args.sample},
        **BOUNDED_STALL)
    result = run_transfer(config)
    doc = result.spans
    assert doc is not None  # spans=True guarantees an export
    if not args.from_file:
        print(f"ran {args.corpus} @ {args.loss * 100:.3g}% loss, "
              f"policy={args.policy}: completed={result.completed} "
              f"sim_time={result.sim_time:.3f}s "
              f"spans={doc['summary']['spans']} "
              f"traces={doc['summary']['traces']}")
    return doc


def cmd_flame(args) -> int:
    from .metrics.flame import build_flame, format_flame, to_folded
    from .metrics.spans import validate_spans

    doc = _spans_doc(args)
    validate_spans(doc)
    if args.out:
        _write_spans(doc, args.out)
    root = build_flame(doc, weight=args.weight)
    print()
    print("\n".join(format_flame(root, weight=args.weight,
                                 max_depth=args.depth,
                                 min_fraction=args.min_frac)))
    if args.folded:
        lines = to_folded(root, weight=args.weight)
        with open(args.folded, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"\nwrote {len(lines)} folded-stack lines to {args.folded}")
    return 0


def _span_cost_line(doc: dict) -> str:
    """What a traced run pays for: spans recorded per data packet."""
    from .metrics.spans import spans_rollup

    by_name = spans_rollup(doc)["by_name"]
    packets = by_name["encode"]["count"] if "encode" in by_name else 0
    total = doc["summary"]["spans"]
    top = sorted(by_name, key=lambda name: -by_name[name]["count"])[:4]
    return (f"cost: {total} spans / {packets} data packets = "
            + (f"{total / packets:.1f}" if packets else "-")
            + " per packet ("
            + ", ".join(f"{name} {by_name[name]['count']}" for name in top)
            + f"; dropped {doc['summary']['dropped']})")


def cmd_spans(args) -> int:
    from .metrics.spans import (find_livelock_trace, format_chain,
                                spans_by_trace, validate_spans)

    doc = _spans_doc(args)
    validate_spans(doc)
    if args.out:
        _write_spans(doc, args.out)
    by_trace = spans_by_trace(doc)
    if not by_trace:
        print("export contains no spans (was tracing sampled away? "
              "try --sample 1)")
        return 1
    print(_span_cost_line(doc))

    if args.list:
        rows = []
        for tid in sorted(by_trace):
            spans = by_trace[tid]
            root = min(spans, key=lambda s: s["span"])
            tags = root["tags"]
            rows.append([tid, root["name"], len(spans),
                         tags.get("packet", "-"), tags.get("seq", "-")])
        print(format_table(f"{len(by_trace)} traces",
                           ["trace", "root", "spans", "packet", "seq"],
                           rows))
        return 0

    trace = args.trace
    if trace is None:
        trace = find_livelock_trace(doc)
        if trace is not None:
            print(f"livelock suspect: trace t{trace} (a decode failed on "
                  "a fingerprint whose carrier was this same segment)")
        else:
            trace = min(by_trace)
            print("no circular-dependency signature found; showing "
                  f"trace t{trace} (pick one with --list)")
    print()
    print("\n".join(format_chain(doc, trace, max_hops=args.hops)))
    return 0


def cmd_bench(args) -> int:
    from pathlib import Path

    from .metrics.regression import (bench_diff_report, format_bench_diff,
                                     run_bench_diff)

    diffs, exit_code = run_bench_diff(
        Path(args.root).resolve(),
        bench_dir=Path(args.dir) if args.dir else None,
        window=args.window)
    print("\n".join(format_bench_diff(diffs)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(bench_diff_report(diffs), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote bench_diff/v1 report to {args.out}")
    regressions = sum(1 for d in diffs if d.status == "regression")
    if exit_code:
        print(f"REGRESSION: {regressions} bench(es) significantly "
              "slower than their history")
    else:
        print("no significant regressions")
    return exit_code


def cmd_serve_sim(args) -> int:
    from .serving import ServingSpec, run_serving

    if not _known_policies([args.policy]):
        return 2
    spec = ServingSpec(
        users=args.users, n_contents=args.contents, alpha=args.alpha,
        mean_object_bytes=args.mean_object,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        cache_shards=args.shards, cache_admission=args.admission,
        policy=args.policy, loss_rate=args.loss,
        arrival_rate=args.arrival_rate,
        requests_per_user=args.requests_per_user,
        max_requests=args.max_requests,
        seed=args.seed, verify=args.verify)
    report = run_serving(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        print(f"wrote {args.out}")
    if args.json:
        print(json.dumps(report, indent=1))
        return 0
    requests = report["requests"]
    steady = report["steady"]
    cache = report.get("cache", {})
    pool = report["pool"]

    def _secs(value):
        return "-" if value is None else f"{value:.3f}s"

    rows = [
        ["requests (total/completed)",
         f"{requests['total']} / {requests['completed']}"],
        ["timeouts / stalled / unfinished",
         f"{requests['timeouts']} / {requests['stalled']} / "
         f"{requests['unfinished']}"],
        ["warm-up requests excluded", requests["warmup"]],
        ["steady hit ratio", f"{steady['hit_ratio']:.1%}"],
        ["steady bytes saved", f"{steady['bytes_saved_ratio']:.1%}"],
        ["steady p50 download", _secs(steady["p50_download_s"])],
        ["steady p99 download", _secs(steady["p99_download_s"])],
        ["cache bytes used / budget",
         f"{cache.get('bytes_used', 0):,} / {cache.get('byte_budget', 0):,}"],
        ["cache evictions", cache.get("evictions", 0)],
        ["pool high-water / released",
         f"{pool['high_water']} / {pool['released']}"],
        ["simulated time", f"{report['sim_time']:.1f}s"],
    ]
    if "shards" in cache:
        occupied = [s for s in cache["shards"] if s["payloads"]]
        rows.append(["shards occupied",
                     f"{len(occupied)} / {len(cache['shards'])}"])
    if "oracle_checks" in report:
        rows.append(["oracle checks (all passed)", report["oracle_checks"]])
    print(format_table(
        f"serve-sim: {args.users} users x {args.contents} contents, "
        f"alpha={args.alpha}, cache={args.cache_mb:g}MB/"
        f"{args.shards} shards",
        ["metric", "value"], rows))
    return 0


def cmd_policies(_args) -> int:
    from .core.policies import make_policy_pair

    rows = []
    for name in sorted(ENCODER_POLICIES):
        encoder_policy, decoder_policy = make_policy_pair(name)
        rows.append([name, type(encoder_policy).__name__,
                     type(decoder_policy).__name__])
    print(format_table("encoding policies", ["name", "encoder", "decoder"],
                       rows))
    return 0


COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "mobility": cmd_mobility,
    "artifact": cmd_artifact,
    "corpus": cmd_corpus,
    "trace": cmd_trace,
    "timeline": cmd_timeline,
    "verify": cmd_verify,
    "fuzz": cmd_fuzz,
    "chaos": cmd_chaos,
    "lint": cmd_lint,
    "flame": cmd_flame,
    "spans": cmd_spans,
    "bench": cmd_bench,
    "serve-sim": cmd_serve_sim,
    "policies": cmd_policies,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
