"""End-to-end benchmark: one command per workload.

    python3 benchmarks/e2e/run.py --workload xfer_dre_lossy --seed 0 \\
        --seconds 28 --trace 0

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  ``--aa`` runs the workload twice on one seed and fails
unless the simulated and counted metrics repeat exactly and the
host-timed ones within the issue's tolerances; ``--list`` prints the
names and checks them against ``BENCHMARK.json``.  README.md has the
glossary.

The workload itself runs in a child interpreter with
``PYTHONHASHSEED=0`` (its peak RSS is its own), and ``setup_s`` is the
median of five more fresh interpreters that import the public API and
materialise the inputs.  Nothing is written unless ``--out`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 170
NAME_RULE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: ``--aa`` compares two runs of one seed, where only the host differs:
#: the issue's tolerances for the host-timed metrics.  Every other
#: metric is simulated or counted and must repeat exactly.  (The bounds
#: in BENCHMARK.json are for runs with different seeds, see README.)
AA_TOLERANCE = {"setup_s": 0.15, "host_cu_per_op": 0.10, "peak_rss_mb": 0.10}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="cap on the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for result JSON and raw spans")
    parser.add_argument("--aa", action="store_true",
                        help="run twice on one seed, require agreement")
    parser.add_argument("--list", action="store_true",
                        help="print and check workload and metric names")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS, workload_named

    if args.list:
        return _list_names()
    if args.workload not in [workload.name for workload in WORKLOADS]:
        parser.error("--workload must be one of "
                     + ", ".join(workload.name for workload in WORKLOADS))
    if args.setup_probe:
        for unit in workload_named(args.workload).units(args.seed):
            unit.materialise()
        return 0
    if args.child:
        return _child(args)
    if args.aa:
        return _aa(args)
    _emit(args, _run_once(args))
    return 0


# -- the measuring child -----------------------------------------------------

def _child(args: argparse.Namespace) -> int:
    import measure

    spans: List[Dict[str, Any]] = []
    try:
        result = measure.measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), spans_out=spans)
    except measure.Nondeterministic as error:
        print(error, file=sys.stderr)
        return 3
    if args.out and spans:
        _write_json(Path(args.out) / f"spans_{args.workload}.json", spans[0])
    print(json.dumps(result))
    return 0


def _spawn(args: argparse.Namespace, mode: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(HERE / "run.py"), mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.out:
        command += ["--out", args.out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)


def _run_once(args: argparse.Namespace) -> Dict[str, Any]:
    """Set-up probes (``--trace 0``) plus the measuring child."""
    setup_samples: List[float] = []
    if not args.trace:
        for _ in range(SETUP_SPAWNS):
            began = perf_counter()
            probe = _spawn(args, "--setup-probe")
            setup_samples.append(perf_counter() - began)
            if probe.returncode != 0:
                raise SystemExit(f"set-up probe failed ({probe.returncode})")
    child = _spawn(args, "--child")
    if child.returncode != 0:
        raise SystemExit(f"workload process failed ({child.returncode})")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if setup_samples:
        result["end_to_end"]["setup_s"] = sorted(
            setup_samples)[len(setup_samples) // 2]
        result["diagnostics"]["setup_samples_s"] = setup_samples
    return result


# -- output ------------------------------------------------------------------

def _emit(args: argparse.Namespace, result: Dict[str, Any]) -> None:
    import measure

    end_units = measure.END_TO_END_UNITS
    layer_units = measure.per_layer_units()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result['diagnostics']['rounds']}")
    for block, units in (("end_to_end", end_units),
                         ("per_layer", layer_units)):
        for name, value in result[block].items():
            print(f"{block:10s} {name:44s} {value:.6g} {units[name]}")
    for name, value in result["diagnostics"].items():
        print(f"diagnostic {name:44s} {value}")
    if args.out:
        _write_json(Path(args.out) / f"result_{args.workload}.json", result)
    block, units = (("per_layer", layer_units) if args.trace
                    else ("end_to_end", end_units))
    missing = sorted(set(units) - set(result[block]))
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result[block][name], "unit": unit}
                    for name, unit in units.items()},
    }))


def _write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


# -- --aa and --list ---------------------------------------------------------

def _aa(args: argparse.Namespace) -> int:
    """Same code, same seed, twice: the host-timed metrics must agree
    within :data:`AA_TOLERANCE`, everything else exactly."""
    import measure

    args.trace = 0
    first = _run_once(args)
    second = _run_once(args)
    failures = 0
    for name, unit in measure.END_TO_END_UNITS.items():
        a, b = first["end_to_end"][name], second["end_to_end"][name]
        change = (b - a) / a
        tolerance = AA_TOLERANCE.get(name, 0.0)
        ok = abs(change) <= tolerance
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name:24s} {a:.6g} -> {b:.6g} "
              f"{unit} ({change:+.2%}, "
              f"{f'within {tolerance:.0%}' if tolerance else 'exact'})")
    for key in ("correct", "failed"):
        if first[key] != second[key]:
            failures += 1
            print(f"FAIL {key}: {first[key]} -> {second[key]}")
    return 1 if failures else 0


def _list_names() -> int:
    """Print every name; check them against BENCHMARK.json and the rule."""
    import measure
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    ours = {
        "workloads": [workload.name for workload in WORKLOADS],
        "end_to_end": list(measure.END_TO_END_UNITS),
        "per_layer": list(measure.per_layer_units()),
    }
    units = dict(measure.END_TO_END_UNITS, **measure.per_layer_units())
    problems: List[str] = []
    for section, names in ours.items():
        print(f"{section}:")
        for name in names:
            print(f"  {name}" + (f" [{units[name]}]" if name in units else ""))
            if not NAME_RULE.match(name):
                problems.append(f"{name}: breaks the name rule")
        theirs = {entry["name"]: entry for entry in declared[section]}
        if sorted(theirs) != sorted(names):
            problems.append(f"{section}: BENCHMARK.json differs: "
                            f"{sorted(set(theirs) ^ set(names))}")
        for name, entry in theirs.items():
            if "unit" in entry and entry["unit"] != units.get(name):
                problems.append(f"{name}: unit {entry['unit']!r} in "
                                f"BENCHMARK.json, {units.get(name)!r} here")
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
