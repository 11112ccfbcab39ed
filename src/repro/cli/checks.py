"""Checking commands: ``verify``, ``fuzz``, ``chaos``, ``lint`` and
``bench``.  Exit 1 means the check found something (a mismatch, a
violation, failed SLOs, a lint finding) or a bench run failed."""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import List, Optional

from .. import chaos
from ..metrics import format_table
from ..serving import ServingSpec
from ..verify import fuzz
from ..verify.differential import run_differential
from .args import (dir_path, json_file, number, one_of, policy_list,
                   write_json)


def _chaos_target(doc) -> Optional[ServingSpec]:
    """The serving spec a scorecard's campaign ran on (None: its own
    transfer)."""
    return None if doc.get("target") is None else ServingSpec(**doc["target"])


def _lint_selectors(text: str) -> Optional[List[str]]:
    """argparse type: comma-separated rule ids or families (none = all)."""
    from ..analysis import select_rules

    select = [token.strip() for token in text.split(",") if token.strip()]
    try:
        select_rules(select or None)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return select or None


def add_parsers(sub) -> None:
    cmd = sub.add_parser("verify", help="differential runner: paired "
                         "executions that must agree (sweep parallelism, "
                         "resilience layer, sharded cache)")
    cmd.add_argument("--scale", default="smoke", choices=["smoke", "headline"],
                     help="workload size: 'smoke' for seconds, 'headline' "
                          "for the paper-scale object (CI)")
    cmd.set_defaults(handler=cmd_verify)

    cmd = sub.add_parser("fuzz", help="randomised scenario fuzzing with the "
                         "invariant oracles armed")
    cmd.add_argument("--seed", type=int, default=7,
                     help="root seed; case i of seed s is identical on "
                          "every machine")
    cmd.add_argument("--iterations", type=number(1, whole=True), default=100)
    cmd.add_argument("--out-dir", type=dir_path,
                     help="write shrunk violation cases as JSON files into "
                          "this directory")
    cmd.add_argument("--replay", metavar="CASE.json",
                     type=json_file("repro.fuzz/v1 case", lambda doc:
                                    fuzz.case_from_json(json.dumps(doc))),
                     help="re-run a saved case file instead of generating "
                          "new ones")
    cmd.add_argument("--inject-bug", choices=["tcp_seq_gate",
                                              "cache_flush_gate",
                                              "k_distance_gate"],
                     help="deliberately disable one policy's safety gate "
                          "(the matching oracle must trip; exercises "
                          "find+shrink+replay)")
    cmd.set_defaults(handler=cmd_fuzz)

    family = sub.add_parser("chaos", help="fault campaigns with steady-state "
                            "SLO oracles and a resilience scorecard"
                            ).add_subparsers(dest="chaos_command",
                                             required=True)
    family.add_parser("list", help="list the canonical campaigns"
                      ).set_defaults(handler=cmd_chaos_list)
    cmd = family.add_parser("run", help="run a canonical campaign and print "
                           "its scorecard")
    cmd.add_argument("name", type=one_of(sorted(chaos.CAMPAIGNS), "campaign"),
                     help="campaign name (see: chaos list)")
    cmd.add_argument("--scale", default="smoke", choices=["smoke", "full"],
                     help="workload size: 'smoke' for seconds, 'full' for "
                          "the bigger object + extra seed")
    cmd.add_argument("--policies", type=policy_list, metavar="P1,P2",
                     help="comma-separated policy list (default: the three "
                          "robust §V policies)")
    cmd.add_argument("--no-resilience", action="store_true",
                     help="disarm the resilience layer (the negative "
                          "control: oracles should fail)")
    cmd.add_argument("--workers", type=number(1, whole=True),
                     help="run campaign cells on a process pool")
    cmd.add_argument("--out", metavar="REPORT.json",
                     help="write the repro.chaos/v1 scorecard to this file")
    cmd.set_defaults(handler=cmd_chaos_run)
    cmd = family.add_parser("replay", help="re-run a saved scorecard and "
                           "check it reproduces byte-for-byte")
    cmd.add_argument("report", metavar="REPORT.json",
                     type=json_file("repro.chaos/v1 report", lambda doc: (
                         chaos.validate_chaos_report(doc),
                         _chaos_target(doc))),
                     help="a repro.chaos/v1 file written by 'chaos run "
                          "--out'")
    cmd.add_argument("--workers", type=number(1, whole=True))
    cmd.set_defaults(handler=cmd_chaos_replay)

    cmd = sub.add_parser("lint", help="architecture lint: layering DAG, "
                         "determinism, process-boundary purity, hot-path "
                         "discipline, robustness hygiene")
    cmd.add_argument("--root", default=".",
                     help="repo root holding pyproject.toml (default: cwd)")
    cmd.add_argument("--format", default="text", choices=["text", "json"],
                     dest="fmt", help="report format (json emits the "
                                      "repro.lint/v2 document)")
    cmd.add_argument("--select", type=_lint_selectors, metavar="RULE,...",
                     help="run only these rule ids or families (e.g. "
                          "layering,determinism-wallclock)")
    cmd.add_argument("--out", help="also write the repro.lint/v2 JSON "
                                   "report to this file")
    cmd.add_argument("--show-suppressed", action="store_true",
                     help="include pragma-suppressed findings in text "
                          "output")
    cmd.set_defaults(handler=cmd_lint)

    family = sub.add_parser("bench", help="paired parent/change runs of "
                            "the end-to-end benchmark"
                            ).add_subparsers(dest="bench_command",
                                             required=True)
    cmd = family.add_parser("pair", help="run benchmarks/e2e on a parent "
                           "commit and on this tree in alternating pairs; "
                           "list every pair, then per end-to-end metric "
                           "wins, medians, IQR gap and whether the change "
                           "is within its BENCHMARK.json bound")
    cmd.add_argument("parent", metavar="PARENT_REF",
                     help="git ref of the parent (checked out into a "
                          "temporary worktree)")
    cmd.add_argument("--workload", action="append", required=True,
                     help="benchmarks/e2e workload (repeatable)")
    cmd.add_argument("--pairs", type=number(1, whole=True), default=10,
                     help="pairs per workload (default: 10, the fewest "
                          "a claimed gain needs)")
    cmd.add_argument("--root", default=".",
                     help="the change's checkout (default: cwd)")
    cmd.set_defaults(handler=cmd_bench_pair, check=_declared_workloads)


def cmd_verify(args) -> int:
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
    if args.replay is not None:
        expected = args.replay.get("violation")
        outcome = fuzz.replay(json.dumps(args.replay))
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
    result = fuzz.run_campaign(args.seed, args.iterations,
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
            print(fuzz.case_to_json(result.shrunk_case,
                                    result.shrunk_violation), file=handle)
        print(f"wrote shrunk case to {path} "
              f"(replay with: repro fuzz --replay {path})")
    return 0 if args.inject_bug else 1


def cmd_chaos_list(_args) -> int:
    rows = [[name, chaos.CAMPAIGNS[name]("smoke").description]
            for name in sorted(chaos.CAMPAIGNS)]
    print(format_table("canonical chaos campaigns",
                       ["name", "description"], rows))
    return 0


def cmd_chaos_replay(args) -> int:
    report, matches = chaos.replay_report(args.report, workers=args.workers,
                                          target=_chaos_target(args.report))
    print(chaos.format_scorecard(report))
    print("replay MATCHES the recorded scorecard" if matches
          else "replay DIVERGES from the recorded scorecard")
    return 0 if matches else 1


def cmd_chaos_run(args) -> int:
    report = chaos.run_campaign(
        chaos.canonical_campaign(args.name, scale=args.scale),
        policies=tuple(args.policies or chaos.CHAOS_POLICIES),
        resilience=not args.no_resilience, workers=args.workers)
    payload = report.to_dict()
    chaos.validate_chaos_report(payload)
    if args.out:
        write_json(args.out, payload, indent=2, sort_keys=True)
        print(f"wrote scorecard to {args.out} "
              f"(replay with: repro chaos replay {args.out})")
    print(chaos.format_scorecard(report))
    return 0 if report.passed else 1


def cmd_lint(args) -> int:
    from ..analysis import format_text, run_lint, validate_lint_report

    report = run_lint(Path(args.root).resolve(), select=args.select)
    payload = report.to_dict()
    validate_lint_report(payload)
    if args.out:
        write_json(args.out, payload, indent=2)
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(format_text(report,
                          verbose_suppressed=args.show_suppressed))
    return report.exit_code


def _declared_workloads(args) -> Optional[str]:
    """Refuse a workload the change tree's ``BENCHMARK.json`` does not
    declare before any worktree is made or anything is run."""
    from ..metrics import benchpair

    declared = [entry["name"] for entry in
                benchpair.declared(Path(args.root).resolve(), "workloads")]
    for workload in args.workload:
        if workload not in declared:
            return (f"unknown workload {workload!r} (BENCHMARK.json "
                    f"declares: {', '.join(declared) or 'none'})")
    return None


def cmd_bench_pair(args) -> int:
    from ..metrics import benchpair

    root = Path(args.root).resolve()
    bounds = benchpair.end_to_end_bounds(root)
    seeds = range(benchpair.FIRST_SEED, benchpair.FIRST_SEED + args.pairs)
    try:
        with benchpair.parent_worktree(root, args.parent) as parent:
            for tree in (parent, root):
                benchpair.compile_tree(tree)
            for workload in args.workload:
                print(f"bench pair: {args.parent} vs {root}, {workload}, "
                      f"{args.pairs} pairs from seed {benchpair.FIRST_SEED}")
                pairs = benchpair.run_pairs(parent, root, workload, seeds,
                                            benchpair.e2e_runner, log=print)
                print(benchpair.format_pairs(workload, pairs, bounds))
                print()
    except RuntimeError as error:
        print(f"bench pair failed: {error}")
        return 1
    return 0
