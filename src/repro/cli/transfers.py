"""Transfer commands: ``run`` and ``sweep``, and the single-run
diagnostics ``trace``, ``timeline``, ``flame`` and ``spans``.  The five
single-transfer commands share ``add_transfer_args`` and build their
config with ``transfer_config``."""

from __future__ import annotations

import sys
from typing import Optional

from ..experiments import ExperimentConfig, run_transfer
from ..experiments.sweep import (SweepSpec, run_sweep, write_bench_json,
                                 write_telemetry_export)
from ..metrics import format_table
from ..metrics.depgraph import format_dependency_trace, graph_from_spans
from ..metrics.flame import build_flame, format_flame, to_folded
from ..metrics.report import format_flight_recorder, format_timeseries
from ..metrics.spans import (find_livelock_trace, format_chain,
                             spans_by_trace, spans_rollup, validate_spans)
from ..workload import corpus_names
from .args import (BOUNDED_STALL, add_transfer_args, json_file, number,
                   percent, percents, policy_list, seed_list, transfer_config,
                   write_json)

#: ``repro timeline``'s default series filters: window collapse, RTO
#: backoff, perceived loss, cache occupancy and bottleneck queueing.
_TIMELINE_DEFAULT_SERIES = ("tcp.cwnd", "tcp.rto", "tcp.inflight",
                            "dre.perceived_loss", "cache.entries",
                            "link.queue_depth")


def add_parsers(sub) -> None:
    cmd = sub.add_parser("run", help="run one transfer")
    add_transfer_args(cmd, policy="cache_flush", loss="0", size=0)
    cmd.add_argument("--k", type=number(1, whole=True),
                     help="k for the k_distance policy")
    cmd.add_argument("--corrupt", type=percent, default="0",
                     help="corruption rate in percent")
    cmd.add_argument("--reorder", type=percent, default="0",
                     help="re-ordering rate in percent")
    cmd.add_argument("--baseline", action="store_true",
                     help="also run the no-DRE baseline and print ratios")
    cmd.add_argument("--profile", action="store_true",
                     help="also print the codec stage timings and the "
                          "anchor-memo counters of the run")
    cmd.set_defaults(handler=cmd_run, check=_k_fits_policy)

    cmd = sub.add_parser("sweep", help="loss sweep over policies")
    cmd.add_argument("--policies", type=policy_list,
                     default="cache_flush,tcp_seq",
                     help="comma-separated policy names")
    cmd.add_argument("--losses", type=percents, default="0,1,2,5,10",
                     help="comma-separated loss rates in percent")
    cmd.add_argument("--corpus", default="file1", choices=corpus_names())
    cmd.add_argument("--seed", type=int, default=11)
    cmd.add_argument("--seeds", type=seed_list,
                     help="comma-separated replicate seeds (overrides "
                          "--seed)")
    cmd.add_argument("--workers", type=number(1, whole=True),
                     help="process-pool size (default: serial)")
    cmd.add_argument("--out",
                     help="write a BENCH_sweep.json file here")
    cmd.add_argument("--telemetry-out",
                     help="record per-cell telemetry and write a "
                          "bench_telemetry/v1 export here (.jsonl = one "
                          "cell per line)")
    cmd.set_defaults(handler=cmd_sweep)

    cmd = sub.add_parser("trace", help="run a transfer and print its "
                         "dependency graph (Fig. 14-style analysis)")
    add_transfer_args(cmd, policy="naive", loss="1", size=60 * 1460)
    cmd.add_argument("--rows", type=number(1, whole=True), default=25,
                     help="how many packets of the trace to print")
    cmd.add_argument("--out",
                     help="also write the run's spans/v1 export to this "
                          "file (read by spans/flame --from)")
    cmd.set_defaults(handler=cmd_trace)

    cmd = sub.add_parser("timeline", help="run one telemetry-instrumented "
                         "transfer and render its time series + flight "
                         "recorder")
    add_transfer_args(cmd, policy="classic", loss="5", size=60 * 1460)
    cmd.add_argument("--resilience", action="store_true",
                     help="arm the gateway resilience layer (adds "
                          "epoch/resync series)")
    cmd.add_argument("--series",
                     help="comma-separated substrings selecting which "
                          "series to render (default: cwnd, RTO, "
                          "in-flight, perceived loss, cache entries, "
                          "queue depth)")
    cmd.add_argument("--width", type=number(1, whole=True), default=64,
                     help="chart width in columns")
    cmd.add_argument("--height", type=number(1, whole=True), default=8,
                     help="chart height in rows")
    cmd.add_argument("--events", type=number(1, whole=True), default=20,
                     help="flight-recorder rows to print")
    cmd.add_argument("--out",
                     help="also write the raw telemetry/v1 export as "
                          "JSON to this file")
    cmd.set_defaults(handler=cmd_timeline)

    cmd = sub.add_parser("flame", help="span-traced run rendered as a "
                         "flame tree (self/total time per pipeline stage)")
    _add_span_run_args(cmd)
    cmd.add_argument("--weight", default="wall",
                     choices=["wall", "sim", "count"],
                     help="node weight: host wall time, sim time, or "
                          "span count")
    cmd.add_argument("--depth", type=number(0, whole=True),
                     help="maximum stack depth to render (0 = top level)")
    cmd.add_argument("--min-frac", type=number(0, 1), default=0.0,
                     dest="min_frac", help="hide nodes below this "
                     "fraction of the total weight")
    cmd.add_argument("--folded", metavar="FILE",
                     help="also write folded-stacks lines "
                          "(flamegraph.pl / speedscope input)")
    cmd.set_defaults(handler=cmd_flame)

    cmd = sub.add_parser("spans", help="print one causal chain end-to-end "
                         "(default: the §IV-B livelock suspect)")
    cmd.add_argument("trace", nargs="?", type=int,
                     help="trace id to walk (default: auto-detect the "
                          "circular-dependency chain)")
    _add_span_run_args(cmd)
    cmd.add_argument("--list", action="store_true",
                     help="list traces instead of walking one")
    cmd.add_argument("--hops", type=number(1, whole=True), default=6,
                     help="cross-trace hops to follow")
    cmd.set_defaults(handler=cmd_spans)


def _add_span_run_args(cmd) -> None:
    """The arguments of a command that reads one spans/v1 export."""
    add_transfer_args(cmd, policy="classic", loss="1", size=60 * 1460)
    cmd.add_argument("--resilience", action="store_true",
                     help="arm the gateway resilience layer")
    cmd.add_argument("--sample", type=number(1, whole=True), default=1,
                     help="trace 1 in N flows (default: all)")
    cmd.add_argument("--from", dest="from_file", metavar="SPANS.json",
                     type=json_file("spans/v1 export", validate_spans),
                     help="read an existing spans/v1 export instead of "
                          "running a transfer")
    cmd.add_argument("--out", metavar="SPANS.json",
                     help="write the spans/v1 export to this file")


def _run_title(args) -> str:
    return (f"{args.corpus} @ {args.loss * 100:.3g}% loss, "
            f"policy={args.policy}")


def _k_fits_policy(args) -> Optional[str]:
    if args.k is not None and args.policy != "k_distance":
        return f"--k applies to k_distance only, not {args.policy!r}"
    return None


def cmd_run(args) -> int:
    config = transfer_config(
        args, policy_kwargs={"k": args.k} if args.k is not None else {},
        corrupt_rate=args.corrupt, reorder_rate=args.reorder,
        profile=args.profile)
    (cell,) = run_sweep(SweepSpec(base=config,
                                  paired_baseline=args.baseline))
    result = cell.result
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
        # A run without DRE is its own baseline.
        baseline = cell.baseline or result
        rows.append(["bytes ratio vs no-DRE",
                     f"{result.forward_bytes_on_link / baseline.forward_bytes_on_link:.3f}"])
        if result.download_time and baseline.download_time:
            rows.append(["delay ratio vs no-DRE",
                         f"{result.download_time / baseline.download_time:.3f}"])
    print(format_table(_run_title(args), ["metric", "value"], rows))
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
    seeds = args.seeds or [args.seed]
    pairs = [(policy, {"k": 8} if policy == "k_distance" else {})
             for policy in args.policies]
    spec = SweepSpec(
        base=ExperimentConfig(corpus=args.corpus,
                              telemetry=bool(args.telemetry_out)),
        grid={"policy,policy_kwargs": pairs, "loss_rate": args.losses},
        seeds=tuple(seeds), paired_baseline=True)
    swept = run_sweep(spec, workers=args.workers)

    def mean(values):
        return sum(values) / len(values) if values else None

    rows = []
    for (policy, loss), group in swept.pooled("policy", "loss_rate").items():
        points = [cell.ratio_point(loss) for cell in group]
        delays = [p.delay_ratio for p in points if p.delay_ratio is not None]
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


def cmd_trace(args) -> int:
    result = run_transfer(transfer_config(
        args, **BOUNDED_STALL,
        # The graph is read off the spans: trace every flow, drop no
        # span (the 120 s time limit bounds the log).
        spans=True, spans_kwargs={"trace_sample": 1,
                                  "max_spans": sys.maxsize}))
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


def cmd_timeline(args) -> int:
    result = run_transfer(transfer_config(
        args, resilience=args.resilience, telemetry=True, **BOUNDED_STALL))
    telemetry = result.telemetry
    sampler = telemetry["sampler"]

    print(format_table(
        f"timeline: {_run_title(args)}", ["metric", "value"],
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
        write_json(args.out, telemetry, indent=2)
        print(f"\nwrote telemetry/v1 export to {args.out}")
    return 0


def _write_spans(doc: dict, path: str) -> None:
    """Write a spans/v1 export in the form ``--from FILE`` reads."""
    write_json(path, doc, indent=2, sort_keys=True)
    print(f"wrote spans/v1 export to {path}")


def _spans_doc(args) -> dict:
    """A spans/v1 export, read by ``--from`` or run, and written to
    ``--out`` when one is given."""
    doc = args.from_file
    if doc is None:
        result = run_transfer(transfer_config(
            args, resilience=args.resilience, spans=True,
            spans_kwargs={"trace_sample": args.sample}, **BOUNDED_STALL))
        doc = result.spans
        print(f"ran {_run_title(args)}: completed={result.completed} "
              f"sim_time={result.sim_time:.3f}s "
              f"spans={doc['summary']['spans']} "
              f"traces={doc['summary']['traces']}")
    if args.out:
        _write_spans(doc, args.out)
    return doc


def cmd_flame(args) -> int:
    doc = _spans_doc(args)
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
    doc = _spans_doc(args)
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
