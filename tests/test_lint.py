"""Tests for the architecture lint engine (``repro lint``).

Each rule family is exercised against a small synthetic tree written
into ``tmp_path`` (so fixtures are real files the engine collects and
parses, exactly like a run over the repo), plus pragma parsing, schema
validation, doctored copies of real modules — and a self-lint
asserting the shipped tree stays clean.
"""

import shutil
from pathlib import Path

import pytest

from repro.analysis import (FAMILIES, LINT_SCHEMA, LintConfig, run_lint,
                            select_rules, validate_lint_report)
from repro.analysis.engine import format_text, module_name_for
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
            "    span = spans.packet_begin('encode', 'enc', 1)",
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

    def test_new_finding_next_to_a_pragma_still_fails(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/net/stack.py": (
                "import time\n"
                "def f(items=[]):\n"
                "    try:\n"
                "        return time.time()\n"
                "    except:  # lint: disable=hygiene-bare-except(legacy)\n"
                "        return 2\n"),
        })
        report = lint(tmp_path)
        assert report.exit_code == 1
        # The accepted bare except stays accepted; the new ones fail.
        assert rules_of(report) == {"determinism-wallclock",
                                    "hygiene-mutable-default"}

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


def with_repo_config(tmp_path):
    """Give a synthetic tree the repo's own ``[tool.repro-lint]``."""
    shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    return tmp_path


def call_site_findings(tmp_path, files):
    make_tree(with_repo_config(tmp_path), files)
    report = lint(tmp_path, select=["layering-call-site"])
    return sorted((f.path, f.line) for f in report.findings if f.active)


class TestCallSites:
    """``[tool.repro-lint.call-sites]``: each reserved call is caught
    where the CI grep it replaced caught it, and where that grep was
    blind (aliased imports, reordered keywords)."""

    def test_file_client_outside_the_runner(self, tmp_path):
        assert call_site_findings(tmp_path, {
            "benchmarks/bench_copy.py": (
                "from repro.app.transfer import FileClient\n"
                "client = FileClient(stack, sim)\n"),
        }) == [("benchmarks/bench_copy.py", 2)]

    def test_aliased_file_client_flagged(self, tmp_path):
        assert call_site_findings(tmp_path, {
            "examples/flow.py": (
                "from repro.app.transfer import FileClient as Client\n"
                "client = Client(stack, sim)\n"),
            "src/repro/serving/engine.py": (
                "from ..app.transfer import FileClient as Fetcher\n"
                "def serve(stack, sim):\n"
                "    return Fetcher(stack, sim)\n"),
        }) == [("examples/flow.py", 2), ("src/repro/serving/engine.py", 3)]

    def test_file_client_in_allowed_modules_clean(self, tmp_path):
        assert call_site_findings(tmp_path, {
            "src/repro/experiments/runner.py": (
                "from ..app.transfer import FileClient as Client\n"
                "def run(stack, sim):\n"
                "    return Client(stack, sim)\n"),
            "src/repro/app/transfer.py": (
                "class FileClient:\n"
                "    pass\n"
                "def fetch():\n"
                "    return FileClient()\n"),
        }) == []

    def test_observer_registration_outside_the_runner(self, tmp_path):
        assert call_site_findings(tmp_path, {
            "src/repro/serving/engine.py": (
                "def observe(telemetry, verifier, gateways, link):\n"
                "    telemetry.register_gateway(gateways.encoder, 'enc')\n"
                "    verifier.attach_pair(\n"
                "        gateways.encoder, gateways.decoder)\n"
                "    telemetry_if(link).register_link(link)\n"),
        }) == [("src/repro/serving/engine.py", 2),
               ("src/repro/serving/engine.py", 3),
               ("src/repro/serving/engine.py", 5)]

    def test_observer_definitions_and_runner_calls_clean(self, tmp_path):
        assert call_site_findings(tmp_path, {
            "src/repro/metrics/telemetry.py": (
                "class Telemetry:\n"
                "    def register_link(self, link):\n"
                "        return link\n"),
            "src/repro/experiments/runner.py": (
                "def _observe(telemetry, link):\n"
                "    telemetry.register_link(link)\n"),
        }) == []

    def test_no_dre_twin_outside_the_sweep(self, tmp_path):
        assert call_site_findings(tmp_path, {
            "benchmarks/bench_twin.py": (
                "from dataclasses import replace\n"
                "twin = replace(config, policy=None, policy_kwargs={})\n"
                "flipped = replace(config, policy_kwargs={}, policy=None)\n"
                "split = replace(config, policy=None,\n"
                "                policy_kwargs={})\n"
                "dre = replace(config, policy=None, policy_kwargs={'k': 8})\n"
                "plain = replace(config, policy=None)\n"),
        }) == [("benchmarks/bench_twin.py", 2), ("benchmarks/bench_twin.py", 3),
               ("benchmarks/bench_twin.py", 4)]

    def test_no_dre_twin_in_the_sweep_clean(self, tmp_path):
        assert call_site_findings(tmp_path, {
            "src/repro/experiments/sweep.py": (
                "def twin(config):\n"
                "    return replace(config, policy_kwargs={}, policy=None)\n"),
        }) == []

    def test_entry_matching_nothing_is_a_config_error(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint.call-sites.empty]\n"
            'allow = ["repro.app"]\n', encoding="utf-8")
        with pytest.raises(ValueError, match="neither calls nor keywords"):
            lint(tmp_path)


#: What CI once appended to real modules in place, now appended to a
#: copy of the tree: (module, appended text, rule it must raise).
DOCTORINGS = {
    "wallclock": ("src/repro/metrics/report.py", """

def _doctored_report() -> str:
    import json as _doctored_json
    import time as _doctored_time
    payload = {"at": _doctored_time.time()}
    return _doctored_json.dumps(payload)
""", "determinism-wallclock"),
    "handler": ("src/repro/gateway/middlebox.py", """

def _doctored_process(gateway, packet):
    try:
        return gateway.process(packet)
    except Exception:
        return None
""", "hygiene-swallowed-violation"),
}


@pytest.fixture(scope="module")
def doctored(tmp_path_factory):
    """One full lint of a copy of ``src/`` carrying both doctorings;
    returns the report and each doctored file's original line count."""
    root = tmp_path_factory.mktemp("doctored")
    shutil.copytree(REPO_ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "pyproject.toml", root / "pyproject.toml")
    lines = {}
    for relpath, text, _ in DOCTORINGS.values():
        path = root / relpath
        original = path.read_text(encoding="utf-8")
        lines[relpath] = len(original.splitlines())
        path.write_text(original + text, encoding="utf-8")
    return run_lint(root), lines


class TestDoctoredTree:
    def test_wallclock_in_a_report_path(self, doctored):
        report, lines = doctored
        relpath, _, rule = DOCTORINGS["wallclock"]
        assert report.exit_code == 1
        # The ``time.time()`` line: two blank lines, the def, two imports.
        assert [(f.rule, f.path, f.line) for f in report.active
                if f.path == relpath] == [(rule, relpath, lines[relpath] + 6)]

    def test_blanket_handler_in_the_gateway(self, doctored):
        report, lines = doctored
        relpath, _, rule = DOCTORINGS["handler"]
        assert [(f.rule, f.path, f.line) for f in report.active
                if f.path == relpath] == [(rule, relpath, lines[relpath] + 6)]
        assert len(report.active) == 2  # nothing else in the copy fires


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


class TestConfigParsing:
    def test_fallback_toml_parser_matches_tomllib(self):
        """The py3.10 fallback must agree with tomllib on our pyproject."""
        tomllib = pytest.importorskip("tomllib")
        from repro.metrics.pyproject import parse_tool_table

        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        reference = tomllib.loads(text)["tool"]["repro-lint"]
        assert parse_tool_table(text, "repro-lint") == reference

    def test_subset_parser_matches_tomllib(self):
        """The 3.10 fallback reads every value shape our tables use, and
        agrees with tomllib on them."""
        from repro.metrics.pyproject import parse_tool_table

        text = (
            '[tool.other-tool]\n'
            'window = 99\n'
            '\n'
            '[tool.repro-lint]\n'
            'package = "mypkg"     # comment after a value\n'
            'strict = true\n'
            'budget = 0.9\n'
            'roots = ["src",\n'
            '         "benchmarks"]\n'
            '\n'
            '[tool.repro-lint.layers.assign]\n'
            '"mypkg.odd" = "b"\n'
            'depth = 4\n')
        table = parse_tool_table(text, "repro-lint")
        assert table["package"] == "mypkg" and table["strict"] is True
        assert table["budget"] == pytest.approx(0.9)
        assert table["roots"] == ["src", "benchmarks"]
        assert table["layers"]["assign"] == {"mypkg.odd": "b", "depth": 4}
        # Foreign tables are ignored entirely.
        assert "other-tool" not in table and 99 not in table.values()
        tomllib = pytest.importorskip("tomllib")
        assert table == tomllib.loads(text)["tool"]["repro-lint"]

    def test_repo_pyproject_parses(self):
        """The committed pyproject holds the lint table and no other
        repro table."""
        from repro.metrics.pyproject import load_tool_table

        table = load_tool_table(REPO_ROOT, "repro-lint")
        assert table["package"] == "repro"
        assert "repro.core.encoder.ByteCachingEncoder.encode" in \
            table["hotpath"]["functions"]
        assert load_tool_table(REPO_ROOT, "repro-bench") == {}

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
