"""Scenario commands: ``artifact``, ``mobility``, ``serve-sim``, and the
``corpus`` and ``policies`` listings."""

from __future__ import annotations

import json
import textwrap

from ..core.policies import ENCODER_POLICIES, make_policy_pair
from ..experiments import scenarios
from ..experiments.mobility import MobilityConfig, run_mobility
from ..metrics import format_table
from ..serving import ServingSpec, run_serving
from ..workload import corpus_names, corpus_object
from ..workload.catalog import MAX_OBJECT_BYTES, MIN_OBJECT_BYTES
from .args import number, one_of, percent, write_json

#: Artifact name -> (the scenario that computes it, the result method
#: that prints it).  Figures 10 and 11 are two views of one sweep; each
#: artifact's checks are the result's checks named after it.
ARTIFACTS = {
    "table1": (scenarios.table1, "report"),
    "figure6": (scenarios.figure6, "report"),
    "figure10": (scenarios.figure10_11, "report_bytes"),
    "figure11": (scenarios.figure10_11, "report_delay"),
    "figure12": (scenarios.figure12, "report"),
    "figure13": (scenarios.figure13, "report"),
    "table2": (scenarios.table2, "report"),
    "headline": (scenarios.headline, "report"),
    "ablation": (scenarios.ablation_packet_size, "report"),
    "extensions": (scenarios.extensions, "report"),
    "impairments": (scenarios.impairment_matrix, "report"),
    "stall-scaling": (scenarios.stall_scaling, "report"),
}


def add_parsers(sub) -> None:
    cmd = sub.add_parser("mobility", help="§II handoff experiment")
    cmd.add_argument("--mode", default="ip-dre",
                     choices=["none", "ip-dre", "tcp-proxy"])
    cmd.add_argument("--handoff", type=number(0), default=0.25,
                     help="handoff time in seconds")
    cmd.add_argument("--loss", type=percent, default="1",
                     help="path-A loss rate in percent")
    cmd.add_argument("--seed", type=int, default=11)
    cmd.set_defaults(handler=cmd_mobility)

    cmd = sub.add_parser("artifact", help="regenerate paper tables/figures "
                         "and check the paper's claims on them (exit 1 on "
                         "an unexpected result)")
    cmd.add_argument("names", nargs="*", metavar="NAME",
                     type=one_of(list(ARTIFACTS), "artifact"),
                     help="artifacts to run (default: all): "
                          + ", ".join(ARTIFACTS))
    cmd.set_defaults(handler=cmd_artifact)

    cmd = sub.add_parser("corpus", help="inspect corpus objects")
    cmd.add_argument("name", nargs="?", choices=corpus_names())
    cmd.set_defaults(handler=cmd_corpus)

    cmd = sub.add_parser("serve-sim", help="population serving simulation "
                         "over a shared sharded byte cache")
    cmd.add_argument("--users", type=number(1, whole=True), default=50,
                     help="subscriber population size")
    cmd.add_argument("--contents", type=number(1, whole=True), default=200,
                     help="catalog size (Zipf-ranked)")
    cmd.add_argument("--alpha", type=number(0), default=0.8,
                     help="Zipf skew of content popularity")
    cmd.add_argument("--mean-object", default=8192,
                     type=number(MIN_OBJECT_BYTES, MAX_OBJECT_BYTES,
                                 whole=True),
                     help="mean object size in bytes")
    cmd.add_argument("--cache-mb", type=number(0, above=True), default=4.0,
                     help="shared cache budget per direction (MB)")
    cmd.add_argument("--shards", type=number(0, whole=True), default=8,
                     help="cache shard count (0 = unsharded)")
    cmd.add_argument("--admission", type=number(0, 1, above=True),
                     default=1.0,
                     help="probabilistic admission fraction (0,1]")
    cmd.add_argument("--policy", default="cache_flush",
                     choices=sorted(ENCODER_POLICIES),
                     help="encoding policy for the gateway pair")
    cmd.add_argument("--loss", type=percent, default="1",
                     help="bottleneck loss rate in percent")
    cmd.add_argument("--arrival-rate", type=number(0, above=True),
                     default=25.0, help="user arrivals per second (Poisson)")
    cmd.add_argument("--requests-per-user", type=number(1), default=2.0,
                     help="geometric mean session length")
    cmd.add_argument("--max-requests", type=number(1, whole=True),
                     help="cap the schedule (soak-style runs)")
    cmd.add_argument("--seed", type=int, default=7)
    cmd.add_argument("--verify", action="store_true",
                     help="arm per-flow content checks and the "
                          "sharded-cache invariant oracle")
    cmd.add_argument("--json", action="store_true",
                     help="print the full serving/v1 report")
    cmd.add_argument("--out", metavar="REPORT.json",
                     help="write the serving/v1 report here")
    cmd.set_defaults(handler=cmd_serve_sim)

    sub.add_parser("policies", help="list encoding policies"
                   ).set_defaults(handler=cmd_policies)


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


#: How a check line reads, by (passed, expected to pass); the capitals
#: are the unexpected outcomes.
_CHECK_STATUS = {(True, True): "pass", (False, True): "FAIL",
                 (False, False): "xfail", (True, False): "XPASS"}


def cmd_artifact(args) -> int:
    results = {}
    counts = dict.fromkeys(_CHECK_STATUS.values(), 0)
    for name in args.names or ARTIFACTS:
        scenario, report = ARTIFACTS[name]
        if scenario not in results:
            results[scenario] = scenario()
        result = results[scenario]
        print(getattr(result, report)())
        for check in result.checks():
            if check.name.partition(".")[0] != name:
                continue
            status = _CHECK_STATUS[(check.passed, check.divergence is None)]
            counts[status] += 1
            print(f"{status:<5}  {check.name}")
            if check.divergence:
                print(textwrap.indent(textwrap.fill(
                    check.divergence, 72, break_on_hyphens=False), " " * 7))
        print()
    print(f"checks: {counts['pass']} passed, {counts['xfail']} failed as "
          f"expected, {counts['FAIL']} failed, {counts['XPASS']} passed "
          "unexpectedly")
    return 1 if counts["FAIL"] or counts["XPASS"] else 0


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


def cmd_serve_sim(args) -> int:
    report = run_serving(ServingSpec(
        users=args.users, n_contents=args.contents, alpha=args.alpha,
        mean_object_bytes=args.mean_object,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        cache_shards=args.shards, cache_admission=args.admission,
        policy=args.policy, loss_rate=args.loss,
        arrival_rate=args.arrival_rate,
        requests_per_user=args.requests_per_user,
        max_requests=args.max_requests,
        seed=args.seed, verify=args.verify))
    if args.out:
        write_json(args.out, report, indent=1)
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
    rows = []
    for name in sorted(ENCODER_POLICIES):
        encoder_policy, decoder_policy = make_policy_pair(name)
        rows.append([name, type(encoder_policy).__name__,
                     type(decoder_policy).__name__])
    print(format_table("encoding policies", ["name", "encoder", "decoder"],
                       rows))
    return 0
