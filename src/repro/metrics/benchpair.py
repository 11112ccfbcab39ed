"""Paired A/B runs of the end-to-end benchmark: ``repro bench pair``.

A perf claim compares a change against its parent commit on the same
box.  Host time drifts from run to run, so the two trees run in pairs
of back-to-back runs on one seed (``FIRST_SEED``, then the next, ...),
the parent first in pairs 1, 3, 5, ... and the change first in the
others, and the report lists every pair before it summarises them.
Every metric the runs print on their result line is summarised: the
number of pairs the change won, both medians, and the IQR gap: how far
the change's median lies below the parent's, less the distance between
the parent's quartiles.  A positive gap is a difference the parent's
own spread does not cover; a metric is *resolved* when it has one and
the change also won at least nine pairs in ten.  A metric is *within
bound* when the change's median exceeds the parent's by no more than
its ``bound`` in the change tree's ``BENCHMARK.json`` (``end_to_end``):
the no-regression rule.  Every end-to-end metric of
``benchmarks/e2e/run.py`` is lower-is-better, and each run lasts that
script's own default length.

The parent is checked out into a temporary ``git worktree`` that is
removed whatever happens, and each tree runs its *own* ``run.py``, so
the harness is whatever that commit measured with.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Sequence

from .report import format_table

#: ``runner(tree, workload, seed)`` -> end-to-end metric values.
Runner = Callable[[Path, str, int], Dict[str, float]]

#: Pair ``i`` (from 0) runs seed ``FIRST_SEED + i``: seeds no earlier
#: measurement in this repository was tuned on.
FIRST_SEED = 101


@dataclass(frozen=True)
class Pair:
    """One seed run on both trees; ``parent_first`` gives the order."""

    seed: int
    parent_first: bool
    parent: Dict[str, float]
    change: Dict[str, float]


@dataclass(frozen=True)
class Summary:
    """One metric over every pair of a workload."""

    metric: str
    wins: int
    pairs: int
    parent_median: float
    change_median: float
    parent_iqr: float

    @property
    def delta(self) -> float:
        """Relative change of the median (negative: the change is lower)."""
        if self.parent_median == 0:
            return 0.0
        return self.change_median / self.parent_median - 1.0

    @property
    def iqr_gap(self) -> float:
        """How far the change's median lies below the parent's, beyond
        the parent's interquartile range."""
        return self.parent_median - self.change_median - self.parent_iqr

    @property
    def resolved(self) -> bool:
        """The change won at least nine pairs in ten and its median
        clears the parent's spread."""
        return 10 * self.wins >= 9 * self.pairs and self.iqr_gap > 0


def e2e_runner(tree: Path, workload: str, seed: int) -> Dict[str, float]:
    """Run ``tree``'s own ``benchmarks/e2e/run.py`` and read its last line."""
    import subprocess

    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited "
                           f"{done.returncode}")
    result = json.loads(lines[-1])
    if result["failed"] or result["correct"] is not True:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed "
                           f"{result['failed']} of {result['attempted']} "
                           f"(correct: {result['correct']})")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


@contextmanager
def parent_worktree(root: Path, ref: str) -> Iterator[Path]:
    """``ref`` checked out (detached) in a temporary ``git worktree`` of
    ``root``; removed on exit, also when the body raises."""
    import shutil
    import subprocess
    import tempfile

    scratch = Path(tempfile.mkdtemp(prefix="bench-pair-"))
    tree = scratch / "parent"
    try:
        added = subprocess.run(["git", "-C", str(root), "worktree", "add",
                                "--detach", "--quiet", str(tree), ref],
                               check=False)
        if added.returncode != 0:
            raise RuntimeError(f"cannot check out {ref!r} from {root}")
        yield tree
    finally:
        if tree.exists():
            subprocess.run(["git", "-C", str(root), "worktree", "remove",
                            "--force", str(tree)], check=False)
        subprocess.run(["git", "-C", str(root), "worktree", "prune"],
                       check=False)
        shutil.rmtree(scratch, ignore_errors=True)


def end_to_end_bounds(tree: Path) -> Dict[str, float]:
    """``name -> bound`` of the ``end_to_end`` metrics in ``tree``'s
    ``BENCHMARK.json`` (empty when the file is absent)."""
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        return {}
    declared = json.loads(path.read_text(encoding="utf-8"))
    return {entry["name"]: float(entry["bound"])
            for entry in declared.get("end_to_end", ())}


def compile_tree(tree: Path) -> None:
    """Byte-compile what a run imports, so neither tree pays for it
    inside a timed set-up probe."""
    import compileall

    for part in ("src", "benchmarks/e2e"):
        compileall.compile_dir(str(tree / part), quiet=1)


def run_pairs(parent: Path, change: Path, workload: str,
              seeds: Sequence[int], runner: Runner,
              log: Callable[[str], None] = lambda line: None) -> List[Pair]:
    """Run each seed on both trees, alternating which goes first."""
    pairs: List[Pair] = []
    for index, seed in enumerate(seeds):
        parent_first = index % 2 == 0
        if parent_first:
            old = runner(parent, workload, seed)
            new = runner(change, workload, seed)
        else:
            new = runner(change, workload, seed)
            old = runner(parent, workload, seed)
        pairs.append(Pair(seed, parent_first, old, new))
        log(f"  {workload} pair {index + 1}/{len(seeds)} (seed {seed}) done")
    return pairs


def summarise(pairs: Sequence[Pair], metric: str) -> Summary:
    parent = [pair.parent[metric] for pair in pairs]
    change = [pair.change[metric] for pair in pairs]
    if len(parent) > 1:
        low, _, high = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        low = high = parent[0]
    return Summary(metric,
                   sum(1 for p, c in zip(parent, change) if c < p),
                   len(pairs), statistics.median(parent),
                   statistics.median(change), high - low)


def format_pairs(workload: str, pairs: Sequence[Pair],
                 bounds: Mapping[str, float]) -> str:
    """Every pair, then per metric wins/N, medians, the IQR gap and
    whether the change's median is within its ``bounds`` entry (a
    fraction of the parent's median)."""
    # The metrics of the first pair's result lines that both trees
    # print, in printed order.
    metrics = [name for name in pairs[0].parent if name in pairs[0].change]
    headers = ["pair", "seed", "first"]
    for metric in metrics:
        headers += [f"{metric} parent", "change"]
    rows = []
    for index, pair in enumerate(pairs, 1):
        row: List[object] = [index, pair.seed,
                             "parent" if pair.parent_first else "change"]
        for metric in metrics:
            row += [f"{pair.parent[metric]:.6g}", f"{pair.change[metric]:.6g}"]
        rows.append(row)
    summary_rows = []
    for metric in metrics:
        s = summarise(pairs, metric)
        bound = bounds.get(metric)
        summary_rows.append([
            metric, f"{s.wins}/{s.pairs}", f"{s.parent_median:.6g}",
            f"{s.change_median:.6g}", f"{s.delta * 100:+.2f} %",
            f"{s.parent_iqr:.6g}", f"{s.iqr_gap:.6g}",
            "yes" if s.resolved else "no",
            "-" if bound is None else f"{bound * 100:+.2f} %",
            "-" if bound is None else "yes" if s.delta <= bound else "NO"])
    return "\n\n".join([
        format_table(f"{workload}: every pair", headers, rows),
        format_table(f"{workload}: change vs parent (lower is better)",
                     ["metric", "wins", "parent median", "change median",
                      "delta", "parent IQR", "IQR gap", "resolved",
                      "bound", "within bound"],
                     summary_rows)])
