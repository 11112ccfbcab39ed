"""Tests for the architecture lint engine (``repro lint``).

Each rule family is exercised against a small synthetic tree written
into ``tmp_path`` (so fixtures are real files the engine collects and
parses, exactly like a run over the repo), plus pragma parsing, the
baseline ratchet, schema validation — and a self-lint asserting the
shipped tree stays clean.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (FAMILIES, LINT_SCHEMA, LintConfig, run_lint,
                            select_rules, validate_lint_report,
                            write_baseline)
from repro.analysis.baseline import BASELINE_SCHEMA, apply_baseline
from repro.analysis.engine import format_text, module_name_for, rewrite_baseline
from repro.analysis.findings import Finding
from repro.analysis.pragmas import parse_pragmas

REPO_ROOT = Path(__file__).resolve().parent.parent


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


def lint(tmp_path, **kwargs):
    return run_lint(tmp_path, **kwargs)


def rules_of(report):
    return {finding.rule for finding in report.findings if finding.active}


class TestLayering:
    def test_upward_import_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/core/codec.py": "from repro.net.packet import x\n",
            "src/repro/net/packet.py": "x = 1\n",
        })
        report = lint(tmp_path)
        assert "layering-import" in rules_of(report)
        assert report.exit_code == 1

    def test_downward_import_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/packet.py": "from repro.core.codec import y\n",
            "src/repro/core/codec.py": "y = 1\n",
        })
        assert "layering-import" not in rules_of(lint(tmp_path))

    def test_type_checking_import_exempt(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/core/codec.py": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from repro.net.packet import x\n"),
            "src/repro/net/packet.py": "x = 1\n",
        })
        assert "layering-import" not in rules_of(lint(tmp_path))

    def test_relative_import_resolved(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/core/codec.py": "from ..net import packet\n",
            "src/repro/net/packet.py": "x = 1\n",
        })
        assert "layering-import" in rules_of(lint(tmp_path))

    def test_unassigned_layer_reported(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/mystery/thing.py": "x = 1\n",
        })
        report = lint(tmp_path)
        assert any(f.rule == "layering-import" and "no layer" in f.message
                   for f in report.findings)

    def test_benchmarks_outside_dag(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/packet.py": "x = 1\n",
            "benchmarks/bench_thing.py": "from repro.net.packet import x\n",
        })
        assert "layering-import" not in rules_of(lint(tmp_path))

    def test_module_name_for(self, tmp_path):
        config = LintConfig(root=tmp_path)
        assert module_name_for(
            tmp_path / "src/repro/core/cache.py", config) == "repro.core.cache"
        assert module_name_for(
            tmp_path / "src/repro/core/__init__.py", config) == "repro.core"
        assert module_name_for(
            tmp_path / "benchmarks/bench_hotpath.py", config) is None


class TestDeterminism:
    def test_global_random_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/sim/faults.py": (
                "import random\n"
                "def roll():\n"
                "    return random.random()\n"),
        })
        assert "determinism-global-random" in rules_of(lint(tmp_path))

    def test_seeded_random_instance_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/sim/faults.py": (
                "import random\n"
                "def roll(seed):\n"
                "    return random.Random(seed).random()\n"),
        })
        assert "determinism-global-random" not in rules_of(lint(tmp_path))

    def test_wallclock_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/sim/engine.py": (
                "import time\n"
                "def now():\n"
                "    return time.time()\n"),
        })
        assert "determinism-wallclock" in rules_of(lint(tmp_path))

    def test_perf_counter_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/sim/engine.py": (
                "from time import perf_counter\n"
                "def stamp():\n"
                "    return perf_counter()\n"),
        })
        assert "determinism-wallclock" not in rules_of(lint(tmp_path))

    def test_unseeded_numpy_flagged_and_default_rng_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/sim/faults.py": (
                "import numpy as np\n"
                "def roll(seed):\n"
                "    good = np.random.default_rng(seed)\n"
                "    return np.random.rand() + good.random()\n"),
        })
        report = lint(tmp_path)
        flagged = [f for f in report.findings
                   if f.rule == "determinism-numpy-global" and f.active]
        assert len(flagged) == 1

    def test_exempt_module_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/sim/rng.py": (
                "import random\n"
                "def seed_all(seed):\n"
                "    random.seed(seed)\n"),
        })
        assert "determinism-global-random" not in rules_of(lint(tmp_path))

    def test_repo_config_covers_every_cli_command_module(self, tmp_path):
        """The repo's ``repro.cli`` layer and determinism entries are
        prefixes, so they cover each module of the ``cli/`` package."""
        (tmp_path / "pyproject.toml").write_text(
            (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"),
            encoding="utf-8")
        clock = "import time\ndef now():\n    return time.time()\n"
        make_tree(tmp_path, {
            "src/repro/cli/checks.py": "from repro.chaos import x\n" + clock,
            "src/repro/metrics/report.py": clock,
        })
        report = lint(tmp_path, select=["determinism-wallclock",
                                        "layering-import"])
        assert {(f.rule, f.path) for f in report.findings if f.active} == {
            ("determinism-wallclock", "src/repro/metrics/report.py")}


HOT_HEADER = "class ByteCachingEncoder:\n"


def hot_module(body):
    """A fake encoder module whose ``encode`` is a registered hot fn."""
    indented = "".join("        " + line + "\n" for line in body)
    return (HOT_HEADER
            + "    def encode(self, data):\n"
            + indented)


class TestHotpath:
    def write(self, tmp_path, body):
        make_tree(tmp_path, {
            "src/repro/core/encoder.py": hot_module(body),
        })
        return lint(tmp_path)

    def test_logging_flagged(self, tmp_path):
        report = self.write(tmp_path, [
            "import logging", "logging.info('x')", "return data"])
        assert "hotpath-logging" in rules_of(report)

    def test_unguarded_telemetry_call_flagged(self, tmp_path):
        report = self.write(tmp_path, [
            "self.profiler.note('x')", "return data"])
        assert "hotpath-telemetry-guard" in rules_of(report)

    def test_guarded_telemetry_call_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/core/encoder.py": (
                HOT_HEADER
                + "    def encode(self, data):\n"
                  "        profiler = self.profiler\n"
                  "        if profiler is not None:\n"
                  "            profiler.note('x')\n"
                  "        return data\n"),
        })
        report = lint(tmp_path)
        assert "hotpath-telemetry-guard" not in rules_of(report)
        assert report.exit_code == 0

    def test_comprehension_in_loop_flagged(self, tmp_path):
        report = self.write(tmp_path, [
            "out = []",
            "for b in data:",
            "    out.extend([v for v in (b,)])",
            "return out"])
        assert "hotpath-comprehension-in-loop" in rules_of(report)

    def test_comprehension_outside_loop_clean(self, tmp_path):
        report = self.write(tmp_path, [
            "return [v for v in data]"])
        assert "hotpath-comprehension-in-loop" not in rules_of(report)

    def test_fstring_flagged_once_but_exempt_in_raise(self, tmp_path):
        report = self.write(tmp_path, [
            "label = f'{data[0]:02x}'",
            "if not data:",
            "    raise ValueError(f'empty: {data!r}')",
            "return label"])
        flagged = [f for f in report.findings
                   if f.rule == "hotpath-format" and f.active]
        assert len(flagged) == 1  # the raise's f-string is exempt

    def test_telemetry_reread_in_loop_flagged(self, tmp_path):
        report = self.write(tmp_path, [
            "for b in data:",
            "    if self.profiler is not None:",
            "        self.profiler.count(b)",
            "return data"])
        assert "hotpath-telemetry-load" in rules_of(report)

    def test_span_creation_in_loop_flagged(self, tmp_path):
        report = self.write(tmp_path, [
            "spans = self.spans",
            "for b in data:",
            "    if spans is not None:",
            "        spans.stage('probe', 'enc', 0.0)",
            "return data"])
        assert "hotpath-span-in-loop" in rules_of(report)

    def test_batched_encode_stages_in_loop_flagged(self, tmp_path):
        report = self.write(tmp_path, [
            "spans = self.spans",
            "for b in data:",
            "    if spans is not None:",
            "        spans.encode_stages('enc', 0.0, 0.0, 0.0, 1, 1, b)",
            "return data"])
        flagged = [f for f in report.findings
                   if f.rule == "hotpath-span-in-loop" and f.active]
        assert len(flagged) == 1
        assert ".encode_stages()" in flagged[0].message

    def test_span_creation_outside_loop_clean(self, tmp_path):
        report = self.write(tmp_path, [
            "spans = self.spans",
            "span = None",
            "if spans is not None:",
            "    span = spans.begin('probe', 'enc')",
            "for b in data:",
            "    pass",
            "if spans is not None:",
            "    spans.stage('pack', 'enc', 0.0)",
            "    spans.end(span)",
            "return data"])
        assert "hotpath-span-in-loop" not in rules_of(report)

    def test_unguarded_span_call_flagged(self, tmp_path):
        report = self.write(tmp_path, [
            "self.spans.packet_event('drop', 'enc', 1)",
            "return data"])
        assert "hotpath-telemetry-guard" in rules_of(report)

    def test_int_of_subscript_flagged_with_item_fix(self, tmp_path):
        report = self.write(tmp_path, [
            "slots = self.table._pkt",
            "for i in data:",
            "    sid = int(slots[i])",
            "return int(self.table._offsets[data[0]])"])
        boxed = {f.line: f for f in report.findings
                 if f.rule == "hotpath-scalar-boxing" and f.active}
        assert sorted(boxed) == [5, 6]
        assert "slots.item(i)" in boxed[5].message
        assert "self.table._offsets.item(data[0])" in boxed[6].fix
        assert report.exit_code == 1

    def test_item_read_and_nested_def_clean(self, tmp_path):
        report = self.write(tmp_path, [
            "sid = self.table._pkt.item(data[0])",
            "def cold(values):",
            "    return int(values[0])",
            "return int(sid) + cold(data)"])
        assert "hotpath-scalar-boxing" not in rules_of(report)

    def test_cold_function_unconstrained(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/core/encoder.py": (
                HOT_HEADER
                + "    def report(self, data):\n"
                  "        return f'{len(data)} bytes'\n"),
        })
        assert rules_of(lint(tmp_path)) == set()

    def test_roster_entry_naming_no_function_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/core/encoder.py": hot_module(["return data"]),
        })
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint.hotpath]\n"
            "functions = [\n"
            '    "repro.core.encoder.ByteCachingEncoder.encode",\n'
            '    "repro.core.encoder.ByteCachingEncoder.encode_batch",\n'
            "]\n", encoding="utf-8")
        report = lint(tmp_path)
        unknown = [f for f in report.findings
                   if f.rule == "hotpath-unknown-function"]
        assert [(f.path, f.line) for f in unknown] == [("pyproject.toml", 4)]
        assert "encode_batch" in unknown[0].message
        assert report.exit_code == 1


class TestHygiene:
    def test_bare_except_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "def f():\n"
                "    try:\n"
                "        return 1\n"
                "    except:\n"
                "        return 2\n"),
        })
        assert "hygiene-bare-except" in rules_of(lint(tmp_path))

    def test_mutable_default_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": "def f(items=[]):\n    return items\n",
        })
        assert "hygiene-mutable-default" in rules_of(lint(tmp_path))

    def test_none_default_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "def f(items=None):\n"
                "    return items or []\n"),
        })
        assert "hygiene-mutable-default" not in rules_of(lint(tmp_path))

    def test_swallowed_violation_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "def f():\n"
                "    try:\n"
                "        return 1\n"
                "    except Exception:\n"
                "        pass\n"),
        })
        assert "hygiene-swallowed-violation" in rules_of(lint(tmp_path))

    def test_handled_violation_clean(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "def f(log):\n"
                "    try:\n"
                "        return 1\n"
                "    except Exception as error:\n"
                "        log(error)\n"
                "        raise\n"),
        })
        assert "hygiene-swallowed-violation" not in rules_of(lint(tmp_path))

    def test_syntax_error_reported_not_fatal(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/broken.py": "def f(:\n",
            "src/repro/net/fine.py": "x = 1\n",
        })
        report = lint(tmp_path)
        assert "hygiene-parse-error" in rules_of(report)
        assert report.files_checked >= 1  # the rest of the tree still ran


class TestPragmas:
    def test_pragma_with_reason_suppresses(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  "
                "# lint: disable=determinism-wallclock(report metadata)\n"),
        })
        report = lint(tmp_path)
        assert report.exit_code == 0
        suppressed = [f for f in report.findings if f.suppressed]
        assert len(suppressed) == 1
        assert suppressed[0].suppress_reason == "report metadata"

    def test_family_prefix_matches(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  "
                "# lint: disable=determinism(edge-of-world code)\n"),
        })
        assert lint(tmp_path).exit_code == 0

    def test_reasonless_pragma_is_a_finding(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  "
                "# lint: disable=determinism-wallclock\n"),
        })
        report = lint(tmp_path)
        assert "pragma-missing-reason" in rules_of(report)
        # ...and the reasonless pragma did NOT suppress the finding.
        assert "determinism-wallclock" in rules_of(report)

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "import time\n"
                "def stamp():\n"
                "    # lint: disable=determinism-wallclock(banner time)\n"
                "    return time.time()\n"),
        })
        assert lint(tmp_path).exit_code == 0

    def test_pragma_text_in_docstring_inert(self):
        by_line, findings = parse_pragmas(
            '"""docs mention # lint: disable=rule(reason) here"""\n'
            "x = 1\n", "mod.py")
        assert by_line == {} and findings == []

    def test_wrong_rule_pragma_does_not_suppress(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  "
                "# lint: disable=hygiene-bare-except(wrong family)\n"),
        })
        assert "determinism-wallclock" in rules_of(lint(tmp_path))


class TestBaseline:
    def seeded(self, tmp_path):
        return make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "def f():\n"
                "    try:\n"
                "        return 1\n"
                "    except:\n"
                "        return 2\n"),
        })

    def test_baselined_finding_passes(self, tmp_path):
        root = self.seeded(tmp_path)
        report = lint(root)
        assert report.exit_code == 1
        baseline = root / "lint-baseline.json"
        write_baseline(baseline, report.findings)
        again = lint(root, baseline_path=baseline)
        assert again.exit_code == 0
        assert any(f.baselined for f in again.findings)

    def test_new_finding_still_fails(self, tmp_path):
        root = self.seeded(tmp_path)
        baseline = root / "lint-baseline.json"
        write_baseline(baseline, lint(root).findings)
        # Introduce a *new* violation: the ratchet must catch it.
        (root / "src/repro/net/stack.py").write_text(
            "import time\n"
            "def f(items=[]):\n"
            "    try:\n"
            "        return time.time()\n"
            "    except:\n"
            "        return 2\n", encoding="utf-8")
        report = lint(root, baseline_path=baseline)
        assert report.exit_code == 1
        active = rules_of(report)
        assert "determinism-wallclock" in active
        assert "hygiene-mutable-default" in active
        # The pre-existing bare except is still absorbed by the baseline.
        assert "hygiene-bare-except" not in active

    def test_fixed_finding_leaves_stale_entry(self, tmp_path):
        root = self.seeded(tmp_path)
        baseline = root / "lint-baseline.json"
        write_baseline(baseline, lint(root).findings)
        (root / "src/repro/net/stack.py").write_text(
            "def f():\n    return 1\n", encoding="utf-8")
        report = lint(root, baseline_path=baseline)
        assert report.exit_code == 0
        assert len(report.stale_baseline) == 1

    def test_write_baseline_prunes_stale(self, tmp_path):
        root = self.seeded(tmp_path)
        baseline = root / "lint-baseline.json"
        write_baseline(baseline, lint(root).findings)
        (root / "src/repro/net/stack.py").write_text(
            "def f():\n    return 1\n", encoding="utf-8")
        report = lint(root, baseline_path=baseline)
        rewrite_baseline(root, report, baseline_path=baseline)
        payload = json.loads(baseline.read_text())
        assert payload["schema"] == BASELINE_SCHEMA
        assert payload["entries"] == []

    def test_fingerprint_survives_line_moves(self):
        a = Finding(rule="r-x", path="p.py", line=3, message="m")
        b = Finding(rule="r-x", path="p.py", line=99, message="m")
        assert a.fingerprint() == b.fingerprint()

    def test_count_budget(self):
        findings = [Finding(rule="r-x", path="p.py", line=i, message="m")
                    for i in (1, 2, 3)]
        entries = [{"rule": "r-x", "path": "p.py", "scope": "",
                    "message": "m",
                    "fingerprint": findings[0].fingerprint(), "count": 2}]
        marked, stale = apply_baseline(findings, entries)
        assert sum(1 for f in marked if f.baselined) == 2
        assert sum(1 for f in marked if f.active) == 1
        assert stale == []


class TestReportAndSelection:
    def test_schema_validates(self, tmp_path):
        make_tree(tmp_path, {"src/repro/core/codec.py": "x = 1\n"})
        payload = lint(tmp_path).to_dict()
        assert payload["schema"] == LINT_SCHEMA
        validate_lint_report(payload)

    def test_validate_rejects_bad_document(self):
        with pytest.raises(ValueError):
            validate_lint_report({"schema": "something-else"})
        with pytest.raises(ValueError):
            validate_lint_report({"schema": LINT_SCHEMA, "counts": {},
                                  "findings": "not-a-list",
                                  "rules_run": []})

    def test_family_selection(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": "def f(items=[]):\n    return items\n",
        })
        report = lint(tmp_path, select=["determinism"])
        assert report.exit_code == 0  # hygiene rules were not run
        assert all(r.startswith("determinism") for r in report.rules_run)

    def test_unknown_selector_raises(self):
        # "taint" and "excflow" were families until PR 21 deleted them.
        for selector in ("no-such-rule", "taint", "excflow"):
            with pytest.raises(ValueError):
                select_rules([selector])

    def test_families_constant_covers_rules(self):
        for rule_obj in select_rules(None):
            assert rule_obj.name.split("-")[0] in FAMILIES

    def test_format_text_mentions_findings(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": "def f(items=[]):\n    return items\n",
        })
        text = format_text(lint(tmp_path))
        assert "hygiene-mutable-default" in text
        assert "src/repro/net/stack.py:1" in text


class TestSelfLint:
    def test_shipped_tree_is_clean(self):
        report = run_lint(REPO_ROOT)
        active = [f for f in report.findings if f.active]
        assert active == [], format_text(report)
        assert report.exit_code == 0

    def test_shipped_baseline_is_empty(self):
        payload = json.loads(
            (REPO_ROOT / "lint-baseline.json").read_text(encoding="utf-8"))
        assert payload["schema"] == BASELINE_SCHEMA
        assert payload["entries"] == []


class TestConfigParsing:
    def test_fallback_toml_parser_matches_tomllib(self):
        """The py3.10 fallback must agree with tomllib on our pyproject."""
        tomllib = pytest.importorskip("tomllib")
        from repro.analysis.config import _parse_repro_lint_subset

        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        reference = tomllib.loads(text)["tool"]["repro-lint"]
        fallback = _parse_repro_lint_subset(text)["tool"]["repro-lint"]
        assert fallback == reference

    def test_config_reads_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\n'
            'roots = ["lib"]\n'
            'package = "mypkg"\n'
            '[tool.repro-lint.layers]\n'
            'order = ["a", "b"]  # comment\n'
            '[tool.repro-lint.layers.assign]\n'
            '"mypkg.odd" = "b"\n', encoding="utf-8")
        from repro.analysis import load_config

        config = load_config(tmp_path)
        assert config.roots == ["lib"]
        assert config.layer_order == ["a", "b"]
        assert config.layer_of("mypkg.odd.sub") == "b"
        assert config.layer_of("mypkg.a.sub") == "a"

    def test_root_package_assign_covers_only_the_root(self):
        config = LintConfig()
        assert config.layer_of("repro") == "cli"
        assert config.layer_of("repro.core.cache") == "core"
        assert config.layer_of("repro.verify.oracles") == "oracles"
        assert config.layer_of("repro.verify.fuzz") == "verify"
