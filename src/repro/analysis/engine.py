"""The lint engine: walk, parse once, run rules, report.

Flow: collect ``*.py`` files under the configured roots -> parse each
exactly once into a :class:`~repro.analysis.astutil.ParsedFile` shared
by every rule -> run the selected rules -> apply inline pragmas -> emit
a :class:`LintReport` (text or ``repro.lint/v2`` JSON).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional

from .astutil import ParsedFile
from .config import LintConfig, load_config
from .findings import Finding, LintReport
from .pragmas import parse_pragmas
from .project import ProjectModel
from .registry import Rule, select_rules
from . import rules as _rules  # noqa: F401  (importing registers the rules)


def collect_files(config: LintConfig) -> List[Path]:
    """Every lintable source file under the configured roots."""
    found: List[Path] = []
    for root_name in config.roots:
        root = config.root / root_name
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            found.append(path)
    return found


def module_name_for(path: Path, config: LintConfig) -> Optional[str]:
    """Dotted module name for files under a package root, else None.

    ``src/repro/core/cache.py -> repro.core.cache``; a benchmark or
    script that is not importable as part of the package maps to None
    and is exempt from the layering DAG (the other rule families still
    apply).
    """
    for root_name in config.roots:
        root = config.root / root_name
        try:
            relative = path.relative_to(root)
        except ValueError:
            continue
        parts = list(relative.parts)
        if not parts or parts[0] != config.package:
            continue
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][:-3]
        return ".".join(parts)
    return None


def parse_file(path: Path, config: LintConfig) -> ParsedFile:
    text = path.read_text(encoding="utf-8")
    relpath = path.relative_to(config.root).as_posix()
    tree = ast.parse(text, filename=str(path))
    parsed = ParsedFile(
        path=str(path), relpath=relpath,
        module=module_name_for(path, config),
        is_package=path.name == "__init__.py",
        text=text, tree=tree)
    parsed.pragmas, parsed.pragma_findings = parse_pragmas(text, relpath)
    return parsed


def run_lint(root: Path,
             select: Optional[Iterable[str]] = None,
             config: Optional[LintConfig] = None) -> LintReport:
    """Lint the tree at ``root`` and return the full report."""
    config = config if config is not None else load_config(root)
    rules = select_rules(select)
    report = LintReport(rules_run=[r.name for r in rules])

    parsed_files: List[ParsedFile] = []
    for path in collect_files(config):
        try:
            parsed = parse_file(path, config)
        except SyntaxError as error:
            report.findings.append(Finding(
                rule="hygiene-parse-error",
                path=path.relative_to(config.root).as_posix(),
                line=error.lineno or 1,
                message=f"file does not parse: {error.msg}"))
            continue
        parsed_files.append(parsed)
    report.files_checked = len(parsed_files)

    # One build pass produces the interprocedural substrate (symbols,
    # call graph, effect records) every rule shares.
    project = ProjectModel(parsed_files, config)

    findings: List[Finding] = list(report.findings)
    for parsed in parsed_files:
        findings.extend(parsed.pragma_findings)
    for rule_obj in rules:
        findings.extend(_run_rule(rule_obj, parsed_files, config, project))

    _apply_pragmas(findings, parsed_files)
    report.findings = findings
    return report


def _run_rule(rule_obj: Rule, parsed_files: List[ParsedFile],
              config: LintConfig, project: ProjectModel) -> List[Finding]:
    if rule_obj.scope == "project":
        return list(rule_obj.fn(parsed_files, config, project))
    findings: List[Finding] = []
    for parsed in parsed_files:
        findings.extend(rule_obj.fn(parsed, config, project))
    return findings


def _apply_pragmas(findings: List[Finding],
                   parsed_files: List[ParsedFile]) -> None:
    pragmas_by_path = {parsed.relpath: parsed.pragmas
                       for parsed in parsed_files}
    for finding in findings:
        if finding.rule == "pragma-missing-reason":
            continue  # pragmas cannot suppress pragma misuse
        for pragma in pragmas_by_path.get(finding.path, {}).get(
                finding.line, []):
            if pragma.matches(finding.rule):
                finding.suppressed = True
                finding.suppress_reason = pragma.reason
                break


# -- rendering -------------------------------------------------------------


def format_text(report: LintReport, verbose_suppressed: bool = False) -> str:
    """Human-readable report (one line per finding, summary last)."""
    lines: List[str] = []
    ordered = sorted(report.findings,
                     key=lambda f: (f.path, f.line, f.col, f.rule))
    for finding in ordered:
        marker = ""
        if not finding.active:
            if not verbose_suppressed:
                continue
            marker = f" [pragma: {finding.suppress_reason}]"
        lines.append(f"{finding.path}:{finding.line}:{finding.col + 1}: "
                     f"{finding.rule} {finding.message}{marker}")
        if finding.active and finding.hops:
            for index, hop in enumerate(finding.hops):
                lines.append(f"    hop {index}: {hop.get('path')}:"
                             f"{hop.get('line')}  {hop.get('detail')}")
        if finding.active and finding.fix:
            lines.append(f"    fix: {finding.fix}")
    active = report.active
    counts = (f"{report.files_checked} files, "
              f"{len(report.rules_run)} rules: "
              f"{len(active)} finding{'s' if len(active) != 1 else ''}")
    suppressed = sum(1 for f in report.findings if f.suppressed)
    if suppressed:
        counts += f" ({suppressed} pragma-suppressed)"
    lines.append(counts)
    return "\n".join(lines)
