"""Bench regression sentinel: enforce perf trends, don't just record them.

``benchmarks/bench_hotpath.py`` and friends append every run to the
``history`` list inside their ``BENCH_*.json`` records (PR 7).  This
module reads that history and answers *did the current run regress* —
statistically, not by eyeballing:

* paired ratios ``r_i = current / history_i`` for a lower-is-better
  metric (flipped for higher-is-better), so each comparison is against
  a real prior run rather than a fitted baseline;
* the **median** ratio over the last ``window`` records (robust to a
  single noisy CI run);
* a seeded bootstrap confidence interval over the ratio median; a
  bench regresses only when the *entire* interval sits above its
  per-bench threshold — noise produces wide intervals, and wide
  intervals don't fire the sentinel.

Configuration lives in ``pyproject.toml`` under ``[tool.repro-bench]``
(thresholds are per-bench, next to the hot-path roster they protect).
:func:`repro.metrics.pyproject.load_tool_table` reads it, as it reads
the architecture lint's ``[tool.repro-lint]``.

``repro bench diff`` is the CLI face; CI's ``bench-sentinel`` job runs
it on the committed history (must pass) and on a doctored copy with a
25% injected slowdown (must exit non-zero).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .pyproject import load_tool_table

BENCH_DIFF_SCHEMA = "bench_diff/v1"

#: Statuses that do NOT fail the sentinel.
_PASSING = ("ok", "insufficient-history", "missing")


@dataclass
class BenchSpec:
    """One guarded benchmark record."""

    name: str
    file: str
    metric: str
    direction: str = "lower"  # "lower" | "higher" (is better)
    threshold: float = 1.15   # median-ratio the CI must clear to fail


@dataclass
class SentinelConfig:
    window: int = 5           # compare against the last K history records
    min_history: int = 3      # fewer records -> "insufficient-history"
    bootstrap: int = 800      # resamples for the CI
    confidence: float = 0.95
    seed: int = 20120612      # ICDCS'12 — any fixed seed works
    benches: List[BenchSpec] = field(default_factory=list)


@dataclass
class BenchDiff:
    """Verdict for one benchmark."""

    name: str
    metric: str
    status: str               # ok | regression | insufficient-history | missing
    current: Optional[float] = None
    baseline_n: int = 0
    median_ratio: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    threshold: float = 0.0
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "metric": self.metric, "status": self.status,
            "current": self.current, "baseline_n": self.baseline_n,
            "median_ratio": self.median_ratio,
            "ci_low": self.ci_low, "ci_high": self.ci_high,
            "threshold": self.threshold, "note": self.note,
        }


# -- config loading --------------------------------------------------------

def load_bench_config(root: Path) -> SentinelConfig:
    """Read ``[tool.repro-bench]`` from ``<root>/pyproject.toml``."""
    table = load_tool_table(root, "repro-bench")
    config = SentinelConfig(
        window=int(table.get("window", 5)),
        min_history=int(table.get("min-history", 3)),
        bootstrap=int(table.get("bootstrap", 800)),
        confidence=float(table.get("confidence", 0.95)),
        seed=int(table.get("seed", 20120612)),
    )
    for name in sorted(table.get("benches", {})):
        entry = table["benches"][name]
        config.benches.append(BenchSpec(
            name=name,
            file=str(entry.get("file", f"BENCH_{name}.json")),
            metric=str(entry["metric"]),
            direction=str(entry.get("direction", "lower")),
            threshold=float(entry.get("threshold", 1.15)),
        ))
    return config


# -- the statistics --------------------------------------------------------

def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def bootstrap_ci(ratios: List[float], resamples: int, confidence: float,
                 rng: random.Random) -> Tuple[float, float]:
    """Percentile bootstrap CI over the median of ``ratios``."""
    n = len(ratios)
    medians = []
    for _ in range(resamples):
        sample = [ratios[rng.randrange(n)] for _ in range(n)]
        medians.append(_median(sample))
    medians.sort()
    alpha = (1.0 - confidence) / 2.0
    low = medians[max(0, int(alpha * resamples))]
    high = medians[min(resamples - 1, int((1.0 - alpha) * resamples))]
    return (low, high)


def diff_bench(spec: BenchSpec, doc: Dict[str, Any], config: SentinelConfig,
               rng: random.Random) -> BenchDiff:
    """Verdict for one BENCH record against its own history."""
    summary = doc.get("summary", {})
    current = summary.get(spec.metric)
    if not isinstance(current, (int, float)):
        return BenchDiff(name=spec.name, metric=spec.metric, status="missing",
                         threshold=spec.threshold,
                         note=f"metric {spec.metric!r} absent from summary")
    history = doc.get("history", [])[-config.window:]
    baseline = [h[spec.metric] for h in history
                if isinstance(h.get(spec.metric), (int, float))
                and h[spec.metric] > 0]
    if len(baseline) < config.min_history:
        return BenchDiff(
            name=spec.name, metric=spec.metric, status="insufficient-history",
            current=float(current), baseline_n=len(baseline),
            threshold=spec.threshold,
            note=f"{len(baseline)} usable history records "
                 f"(need {config.min_history}); trend not yet enforceable")
    if spec.direction == "higher":
        ratios = [b / current for b in baseline]
    else:
        ratios = [current / b for b in baseline]
    median = _median(ratios)
    ci_low, ci_high = bootstrap_ci(ratios, config.bootstrap,
                                   config.confidence, rng)
    # Regression only when the whole CI clears the threshold: a noisy
    # run widens the interval and cannot fire the sentinel by itself.
    status = "regression" if ci_low > spec.threshold else "ok"
    note = ""
    if status == "ok" and median > spec.threshold:
        note = (f"median ratio {median:.3f} above threshold but CI "
                f"[{ci_low:.3f}, {ci_high:.3f}] still straddles it")
    return BenchDiff(
        name=spec.name, metric=spec.metric, status=status,
        current=float(current), baseline_n=len(baseline),
        median_ratio=median, ci_low=ci_low, ci_high=ci_high,
        threshold=spec.threshold, note=note)


def run_bench_diff(root: Path, bench_dir: Optional[Path] = None,
                   window: Optional[int] = None
                   ) -> Tuple[List[BenchDiff], int]:
    """Diff every configured bench; returns (verdicts, exit_code)."""
    config = load_bench_config(root)
    if window is not None:
        config.window = window
    bench_dir = Path(bench_dir) if bench_dir is not None else Path(root)
    rng = random.Random(config.seed)
    diffs: List[BenchDiff] = []
    for spec in config.benches:
        path = bench_dir / spec.file
        if not path.is_file():
            diffs.append(BenchDiff(
                name=spec.name, metric=spec.metric, status="missing",
                threshold=spec.threshold, note=f"{spec.file} not found"))
            continue
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:
            diffs.append(BenchDiff(
                name=spec.name, metric=spec.metric, status="missing",
                threshold=spec.threshold, note=f"unreadable: {exc}"))
            continue
        diffs.append(diff_bench(spec, doc, config, rng))
    exit_code = 0 if all(d.status in _PASSING for d in diffs) else 1
    return diffs, exit_code


def bench_diff_report(diffs: List[BenchDiff]) -> Dict[str, Any]:
    return {
        "schema": BENCH_DIFF_SCHEMA,
        "summary": {
            "benches": len(diffs),
            "regressions": sum(1 for d in diffs if d.status == "regression"),
        },
        "diffs": [d.to_dict() for d in diffs],
    }


def format_bench_diff(diffs: List[BenchDiff]) -> List[str]:
    lines = [f"{'bench':<12} {'metric':<18} {'status':<22} "
             f"{'ratio':>7} {'ci':>17} {'thr':>6}"]
    for d in diffs:
        ratio = f"{d.median_ratio:.3f}" if d.median_ratio is not None else "-"
        ci = (f"[{d.ci_low:.3f},{d.ci_high:.3f}]"
              if d.ci_low is not None else "-")
        lines.append(f"{d.name:<12} {d.metric:<18} {d.status:<22} "
                     f"{ratio:>7} {ci:>17} {d.threshold:>6.2f}")
        if d.note:
            lines.append(f"{'':12} note: {d.note}")
    return lines
