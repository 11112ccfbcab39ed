"""Bench regression sentinel: config parsing, statistics, verdicts,
and the ``repro bench diff`` CLI face.

The sentinel's contract is asymmetric: noisy history must NOT fire it
(the CI has to clear the threshold entirely), while a consistent
slowdown MUST exit non-zero.  Both directions are pinned here so CI's
bench-sentinel job can trust the tool it is built on.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.metrics.regression import (
    BENCH_DIFF_SCHEMA,
    BenchSpec,
    SentinelConfig,
    bench_diff_report,
    bootstrap_ci,
    diff_bench,
    format_bench_diff,
    load_bench_config,
    run_bench_diff,
)
from repro.metrics.pyproject import parse_tool_table

REPO = Path(__file__).resolve().parent.parent

PYPROJECT = """
[tool.other-tool]
window = 99

[tool.repro-bench]
window = 4            # comment after a value
min-history = 2
bootstrap = 64
confidence = 0.9
seed = 7

[tool.repro-bench.benches.alpha]
file = "BENCH_alpha.json"
metric = "seconds"
direction = "lower"
threshold = 1.10

[tool.repro-bench.benches.beta]
file = "BENCH_beta.json"
metric = "throughput"
direction = "higher"
"""


def bench_doc(current, history):
    """A minimal BENCH record: flat history entries, like
    append_bench_history writes them."""
    return {"schema": "bench_x/v1",
            "summary": {"seconds": current},
            "history": [{"name": "x", "seconds": h} for h in history]}


class TestConfig:
    def test_load_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(PYPROJECT)
        config = load_bench_config(tmp_path)
        assert (config.window, config.min_history) == (4, 2)
        assert (config.bootstrap, config.confidence, config.seed) == \
            (64, 0.9, 7)
        assert [b.name for b in config.benches] == ["alpha", "beta"]
        alpha, beta = config.benches
        assert (alpha.file, alpha.metric, alpha.direction) == \
            ("BENCH_alpha.json", "seconds", "lower")
        assert alpha.threshold == pytest.approx(1.10)
        assert (beta.direction, beta.threshold) == ("higher", 1.15)

    def test_missing_pyproject_yields_defaults(self, tmp_path):
        config = load_bench_config(tmp_path / "nowhere")
        assert config.window == 5 and config.benches == []

    def test_subset_parser_matches_tomllib(self):
        """The 3.10 fallback must agree with tomllib on our tables."""
        table = parse_tool_table(PYPROJECT, "repro-bench")
        assert table["window"] == 4
        assert table["confidence"] == pytest.approx(0.9)
        assert table["benches"]["alpha"]["file"] == "BENCH_alpha.json"
        assert table["benches"]["beta"]["metric"] == "throughput"
        # Foreign tables are ignored entirely.
        assert "other-tool" not in table and 99 not in table.values()
        tomllib = pytest.importorskip("tomllib")
        assert table == tomllib.loads(PYPROJECT)["tool"]["repro-bench"]

    def test_repo_pyproject_parses(self):
        """The committed config names real BENCH files and metrics."""
        config = load_bench_config(REPO)
        names = {b.name for b in config.benches}
        assert names == {"hotpath"}
        for bench in config.benches:
            assert bench.threshold > 1.0
            assert bench.direction in ("lower", "higher")


class TestStatistics:
    def test_bootstrap_ci_deterministic_and_ordered(self):
        ratios = [1.0, 1.1, 0.9, 1.2, 1.05]
        a = bootstrap_ci(ratios, 200, 0.95, random.Random(3))
        b = bootstrap_ci(ratios, 200, 0.95, random.Random(3))
        assert a == b
        assert a[0] <= a[1]
        assert min(ratios) <= a[0] and a[1] <= max(ratios)

    def test_constant_ratios_collapse_the_ci(self):
        low, high = bootstrap_ci([1.25] * 5, 100, 0.95, random.Random(1))
        assert low == high == pytest.approx(1.25)


class TestDiffBench:
    SPEC = BenchSpec(name="x", file="BENCH_x.json", metric="seconds",
                     direction="lower", threshold=1.20)
    CONFIG = SentinelConfig(window=5, min_history=3, bootstrap=200)

    def diff(self, doc, spec=None):
        return diff_bench(spec or self.SPEC, doc, self.CONFIG,
                          random.Random(self.CONFIG.seed))

    def test_ok_when_flat(self):
        d = self.diff(bench_doc(1.0, [1.0, 1.01, 0.99, 1.0]))
        assert d.status == "ok"
        assert d.median_ratio == pytest.approx(1.0, abs=0.02)
        assert d.baseline_n == 4

    def test_regression_when_consistently_slower(self):
        d = self.diff(bench_doc(1.3, [1.0, 1.0, 1.0, 1.0]))
        assert d.status == "regression"
        assert d.ci_low > self.SPEC.threshold

    def test_single_noisy_history_record_does_not_fire(self):
        """One garbage 0.1s record would make ratios [13, 1.3...]; the
        median and CI must stay driven by the sane majority."""
        d = self.diff(bench_doc(1.1, [0.1, 1.1, 1.1, 1.1, 1.1]))
        assert d.status == "ok"

    def test_higher_is_better_flips_the_ratio(self):
        spec = BenchSpec(name="x", file="f", metric="seconds",
                         direction="higher", threshold=1.20)
        d = self.diff(bench_doc(0.7, [1.0, 1.0, 1.0]), spec=spec)
        assert d.status == "regression"  # throughput fell 30%

    def test_insufficient_history(self):
        d = self.diff(bench_doc(1.0, [1.0, 1.0]))
        assert d.status == "insufficient-history"
        assert d.baseline_n == 2 and d.median_ratio is None

    def test_window_limits_the_baseline(self):
        # Ancient fast records outside the window must not count.
        doc = bench_doc(1.0, [0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0])
        d = self.diff(doc)
        assert d.status == "ok" and d.baseline_n == 5

    def test_missing_metric(self):
        d = self.diff({"summary": {"other": 1.0}, "history": []})
        assert d.status == "missing"

    def test_nonpositive_history_entries_skipped(self):
        d = self.diff(bench_doc(1.0, [0.0, -1.0, 1.0, 1.0]))
        assert d.status == "insufficient-history" and d.baseline_n == 2


class TestRunBenchDiff:
    def project(self, tmp_path, current=1.0, history=(1.0, 1.0, 1.0)):
        (tmp_path / "pyproject.toml").write_text(PYPROJECT)
        (tmp_path / "BENCH_alpha.json").write_text(
            json.dumps(bench_doc(current, list(history))))
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path):
        root = self.project(tmp_path)
        diffs, code = run_bench_diff(root)
        assert code == 0
        by_name = {d.name: d.status for d in diffs}
        assert by_name["alpha"] == "ok"
        assert by_name["beta"] == "missing"  # absent file is not a failure

    def test_injected_regression_exits_nonzero(self, tmp_path):
        root = self.project(tmp_path, current=1.25)
        diffs, code = run_bench_diff(root)
        assert code == 1
        assert {d.status for d in diffs} == {"regression", "missing"}

    def test_window_override(self, tmp_path):
        root = self.project(tmp_path, history=(1.0,) * 10)
        diffs, _ = run_bench_diff(root, window=3)
        assert next(d for d in diffs if d.name == "alpha").baseline_n == 3

    def test_report_and_table(self, tmp_path):
        root = self.project(tmp_path, current=1.25)
        diffs, _ = run_bench_diff(root)
        report = bench_diff_report(diffs)
        assert report["schema"] == BENCH_DIFF_SCHEMA
        assert report["summary"]["regressions"] == 1
        assert len(report["diffs"]) == len(diffs)
        text = "\n".join(format_bench_diff(diffs))
        assert "regression" in text and "alpha" in text

    def test_committed_history_passes(self):
        """The repo's own BENCH records must never trip the sentinel."""
        _diffs, code = run_bench_diff(REPO)
        assert code == 0


class TestCli:
    def run_cli(self, *argv, cwd):
        env_src = str(REPO / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "bench", "diff", *argv],
            capture_output=True, text=True, cwd=cwd,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"})

    def test_cli_clean_and_doctored(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(PYPROJECT)
        (tmp_path / "BENCH_alpha.json").write_text(
            json.dumps(bench_doc(1.0, [1.0, 1.0, 1.0])))
        out = tmp_path / "bench-diff.json"
        clean = self.run_cli("--out", str(out), cwd=tmp_path)
        assert clean.returncode == 0, clean.stderr
        assert "no significant regressions" in clean.stdout
        assert json.loads(out.read_text())["schema"] == BENCH_DIFF_SCHEMA

        (tmp_path / "BENCH_alpha.json").write_text(
            json.dumps(bench_doc(1.3, [1.0, 1.0, 1.0])))
        doctored = self.run_cli(cwd=tmp_path)
        assert doctored.returncode == 1
        assert "REGRESSION" in doctored.stdout
