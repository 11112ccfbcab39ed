"""Tests for ``purity``, the one family that walks the call graph, and
for the two per-file rules that own what the deleted ``taint`` and
``excflow`` families policed.

The deleted families' fixtures stay as inputs (same synthetic-tree
style as ``test_lint.py``): nondeterminism is convicted where it is
read (``determinism-wallclock``, sink or no sink), and a swallowed
``InvariantViolation`` by what the handler does
(``hygiene-swallowed-violation``), with no call graph.
"""

from pathlib import Path

import pytest

from repro.analysis import run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent


def finding_hops_valid(finding):
    """True when a finding's hop chain is structurally well-formed."""
    return all(isinstance(hop, dict)
               and {"path", "line", "detail"} <= set(hop)
               for hop in finding.hops)


def make_tree(tmp_path, files):
    """Write ``{relpath: source}`` under a src/ package root."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    for package_dir in sorted({p.parent for p in tmp_path.rglob("*.py")}):
        init = package_dir / "__init__.py"
        if package_dir != tmp_path / "src" and not init.exists():
            init.write_text("", encoding="utf-8")
    return tmp_path


def active(report, rule):
    return [f for f in report.findings if f.active and f.rule == rule]


def assert_convicted_at_source(tmp_path, files, path, line):
    """``determinism-wallclock`` fails the run at the read, nowhere else."""
    report = run_lint(make_tree(tmp_path, files))
    assert report.exit_code != 0
    assert [(f.path, f.line)
            for f in active(report, "determinism-wallclock")] == [(path, line)]


class TestNondeterminismAtSource:
    @pytest.mark.parametrize("files, path, line", [
        pytest.param({
            "src/repro/metrics/report.py": (
                "import json, time\n"
                "def write_report(handle):\n"
                "    stamp = time.time()\n"
                "    json.dump({'at': stamp}, handle)\n"
            ),
        }, "src/repro/metrics/report.py", 3, id="direct-flow-into-json"),
        pytest.param({
            "src/repro/metrics/report.py": (
                "import json\n"
                "from repro.metrics.meta import build_meta\n"
                "def export(results, handle):\n"
                "    doc = {'results': results, 'meta': build_meta()}\n"
                "    json.dump(doc, handle)\n"
            ),
            "src/repro/metrics/meta.py": (
                "import time\n"
                "def build_meta():\n"
                "    return {'written_at': now_stamp()}\n"
                "def now_stamp():\n"
                "    return time.time()\n"
            ),
        }, "src/repro/metrics/meta.py", 5, id="interprocedural-flow"),
        pytest.param({
            "src/repro/metrics/bucket.py": (
                "import json, os\n"
                "def collect(handle):\n"
                "    rows = []\n"
                "    rows.append(os.urandom(8).hex())\n"
                "    json.dump(rows, handle)\n"
            ),
        }, "src/repro/metrics/bucket.py", 4, id="container-store-flow"),
        # No sink in sight: convicted at the call all the same.
        pytest.param({
            "src/repro/workload/names.py": (
                "import uuid\n"
                "def fresh_name():\n"
                "    return uuid.uuid4().hex\n"
            ),
        }, "src/repro/workload/names.py", 3, id="uuid4-no-sink"),
        pytest.param({
            "src/repro/workload/names.py": (
                "from secrets import token_hex\n"
                "def fresh_name():\n"
                "    return token_hex(8)\n"
            ),
        }, "src/repro/workload/names.py", 3, id="token-hex-no-sink"),
    ])
    def test_convicted_at_source_line(self, tmp_path, files, path, line):
        assert_convicted_at_source(tmp_path, files, path, line)


class TestPurity:
    def test_lambda_submission_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/experiments/run.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def sweep(items):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.map(lambda x: x + 1, items))\n"
            ),
        })
        findings = active(run_lint(tmp_path), "purity-unpicklable")
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_nested_function_submission_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/experiments/run.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def sweep(items, offset):\n"
                "    def worker(x):\n"
                "        return x + offset\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.map(worker, items))\n"
            ),
        })
        findings = active(run_lint(tmp_path), "purity-unpicklable")
        assert len(findings) == 1
        assert "closes over" in findings[0].message

    def test_bound_method_submission_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/experiments/run.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "class Runner:\n"
                "    def cell(self, x):\n"
                "        return x\n"
                "    def sweep(self, items):\n"
                "        with ProcessPoolExecutor() as pool:\n"
                "            return list(pool.map(self.cell, items))\n"
            ),
        })
        findings = active(run_lint(tmp_path), "purity-unpicklable")
        assert len(findings) == 1
        assert "bound method" in findings[0].message

    def test_generator_argument_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/experiments/run.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def cell(x):\n"
                "    return x\n"
                "def sweep(items):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.submit(cell, "
                "(i for i in items)))\n"
            ),
        })
        findings = active(run_lint(tmp_path), "purity-unpicklable")
        assert len(findings) == 1
        assert "generator" in findings[0].message

    def test_module_level_worker_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/experiments/run.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def cell(x):\n"
                "    return x * 2\n"
                "def sweep(items):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.map(cell, items))\n"
            ),
        })
        report = run_lint(tmp_path)
        assert active(report, "purity-unpicklable") == []
        assert active(report, "purity-global-mutation") == []

    def test_worker_reachable_global_mutation_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/experiments/run.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "from repro.workload.state import record\n"
                "def cell(x):\n"
                "    record(x)\n"
                "    return x\n"
                "def sweep(items):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.map(cell, items))\n"
            ),
            "src/repro/workload/state.py": (
                "SEEN = []\n"
                "def record(x):\n"
                "    SEEN.append(x)\n"
            ),
        })
        findings = active(run_lint(tmp_path), "purity-global-mutation")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "src/repro/workload/state.py"
        # Full hop chain: submission -> cell -> record -> mutation.
        assert len(finding.hops) >= 3
        assert finding.hops[0]["detail"].startswith("submitted")
        assert finding_hops_valid(finding)


class TestExcflow:
    """The deleted family's fixtures, re-pointed at the per-file rule."""

    def test_swallowed_violation_chain_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/gateway/box.py": (
                "from repro.core.checks import guard\n"
                "def process(data):\n"
                "    try:\n"
                "        return guard(data)\n"
                "    except Exception:\n"
                "        return None\n"
            ),
            "src/repro/core/checks.py": (
                "class InvariantViolation(AssertionError):\n"
                "    pass\n"
                "def guard(data):\n"
                "    return deep_check(data)\n"
                "def deep_check(data):\n"
                "    if not data:\n"
                "        raise InvariantViolation('empty')\n"
                "    return data\n"
            ),
        })
        findings = active(run_lint(tmp_path),
                          "hygiene-swallowed-violation")
        assert [(f.path, f.line) for f in findings] == \
            [("src/repro/gateway/box.py", 5)]

    def test_rereferenced_exception_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/gateway/box.py": (
                "from repro.core.checks import guard\n"
                "RESULTS = {}\n"
                "def process(data, log):\n"
                "    try:\n"
                "        return guard(data)\n"
                "    except Exception as exc:\n"
                "        log.append(str(exc))\n"
                "        raise\n"
            ),
            "src/repro/core/checks.py": (
                "class InvariantViolation(AssertionError):\n"
                "    pass\n"
                "def guard(data):\n"
                "    if not data:\n"
                "        raise InvariantViolation('empty')\n"
                "    return data\n"
            ),
        })
        assert active(run_lint(tmp_path),
                      "hygiene-swallowed-violation") == []

    def test_verify_modules_exempt(self, tmp_path):
        """A handler that records ``exc.summary()`` passes in any module:
        the harness is recognised by what it does, not by an allow-list."""
        make_tree(tmp_path, {
            "src/repro/gateway/runner.py": (
                "from repro.core.checks import InvariantViolation, guard\n"
                "def score(data, card):\n"
                "    try:\n"
                "        return guard(data)\n"
                "    except InvariantViolation as exc:\n"
                "        card['violation'] = exc.summary()\n"
                "        return 'violation'\n"
            ),
            "src/repro/core/checks.py": (
                "class InvariantViolation(AssertionError):\n"
                "    def summary(self):\n"
                "        return str(self)\n"
                "def guard(data):\n"
                "    if not data:\n"
                "        raise InvariantViolation('empty')\n"
                "    return data\n"
            ),
        })
        assert active(run_lint(tmp_path),
                      "hygiene-swallowed-violation") == []

    def test_unrelated_catch_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/gateway/box.py": (
                "def load(path):\n"
                "    try:\n"
                "        with open(path) as handle:\n"
                "            return handle.read()\n"
                "    except OSError:\n"
                "        return None\n"
            ),
        })
        assert active(run_lint(tmp_path),
                      "hygiene-swallowed-violation") == []

    def test_blanket_handler_over_opaque_call_flagged(self, tmp_path):
        """No call graph resolves ``self.fn()``; the handler is convicted
        by what it does."""
        make_tree(tmp_path, {
            "src/repro/metrics/gauge.py": (
                "class Gauge:\n"
                "    def __init__(self, fn):\n"
                "        self.fn = fn\n"
                "    def read(self):\n"
                "        try:\n"
                "            return float(self.fn())\n"
                "        except Exception:\n"
                "            return 0.0\n"
            ),
        })
        findings = active(run_lint(tmp_path),
                          "hygiene-swallowed-violation")
        assert [(f.path, f.line) for f in findings] == \
            [("src/repro/metrics/gauge.py", 7)]

    def test_cleanup_then_reraise_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/gateway/box.py": (
                "def process(step, cleanup):\n"
                "    try:\n"
                "        return step()\n"
                "    except BaseException:\n"
                "        cleanup()\n"
                "        raise\n"
            ),
        })
        assert active(run_lint(tmp_path),
                      "hygiene-swallowed-violation") == []


class TestSelfLintDataflow:
    def test_shipped_tree_clean_under_new_families(self):
        """0 active findings, and exactly the four reasoned pragmas
        (two of them the process-wide pure memos: anchor sets, corpus
        objects)."""
        report = run_lint(REPO_ROOT, select=[
            "purity", "determinism-wallclock",
            "hygiene-swallowed-violation"])
        assert [f for f in report.findings if f.active] == []
        suppressed = sorted((f.path, f.rule) for f in report.findings
                            if f.suppressed)
        assert suppressed == [
            ("src/repro/core/fingerprint.py", "purity-global-mutation"),
            ("src/repro/metrics/telemetry.py",
             "hygiene-swallowed-violation"),
            ("src/repro/metrics/telemetry.py",
             "hygiene-swallowed-violation"),
            ("src/repro/workload/corpus.py", "purity-global-mutation"),
        ]

    def test_doctored_wallclock_violation_caught(self, tmp_path):
        """CI smoke contract: injecting time.time() into a report path
        of a copied module tree must fail the lint on the doctored
        line."""
        assert_convicted_at_source(tmp_path, {
            "src/repro/metrics/report.py": (
                "import json\n"
                "def export(results, handle):\n"
                "    json.dump({'results': results,\n"
                "               'at': _stamp()}, handle)\n"
                "import time\n"
                "def _stamp():\n"
                "    return time.time()\n"
            ),
        }, "src/repro/metrics/report.py", 7)
