"""Lint findings and the ``repro.lint/v2`` report schema.

A :class:`Finding` is one rule violation pinned to a file location.  A
finding fails the run unless a ``# lint: disable=RULE(reason)`` pragma
on its line accepts it; the pragma's reason is mandatory and travels
with the finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

LINT_SCHEMA = "repro.lint/v2"

#: Rule families, in report order.
FAMILIES = ("layering", "determinism", "purity", "hotpath", "hygiene",
            "pragma")


@dataclass
class Finding:
    """One rule violation.

    ``scope`` is the enclosing qualified name (``Class.method`` or a
    function name) when the violation sits inside one.
    """

    rule: str
    path: str                      # repo-root-relative, posix separators
    line: int
    message: str
    col: int = 0
    scope: str = ""
    fixable: bool = False
    fix: str = ""                  # suggested remedy, for fixable findings
    suppressed: bool = False       # suppressed by an inline pragma
    suppress_reason: str = ""      # the pragma's mandatory reason
    #: Interprocedural findings carry the full source->sink hop chain
    #: (``{"path", "line", "detail"}`` per hop), like ``repro spans``.
    hops: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def family(self) -> str:
        return self.rule.split("-", 1)[0]

    @property
    def active(self) -> bool:
        """True when this finding should fail the run."""
        return not self.suppressed

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "rule": self.rule,
            "family": self.family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "scope": self.scope,
            "message": self.message,
            "fixable": self.fixable,
            "suppressed": self.suppressed,
        }
        if self.fix:
            payload["fix"] = self.fix
        if self.suppress_reason:
            payload["suppress_reason"] = self.suppress_reason
        if self.hops:
            payload["hops"] = list(self.hops)
        return payload


@dataclass
class LintReport:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if f.active]

    @property
    def exit_code(self) -> int:
        return 1 if self.active else 0

    def to_dict(self) -> Dict[str, Any]:
        ordered = sorted(
            self.findings,
            key=lambda f: (f.path, f.line, f.col, f.rule))
        return {
            "schema": LINT_SCHEMA,
            "files_checked": self.files_checked,
            "rules_run": sorted(self.rules_run),
            "counts": {
                "total": len(self.findings),
                "active": len(self.active),
                "suppressed": sum(1 for f in self.findings if f.suppressed),
            },
            "findings": [f.to_dict() for f in ordered],
        }


def validate_lint_report(payload: Dict[str, Any]) -> None:
    """Validate a ``repro.lint/v2`` document; raises ``ValueError``."""
    def fail(message: str) -> None:
        raise ValueError(f"invalid {LINT_SCHEMA} document: {message}")

    if not isinstance(payload, dict):
        fail("not an object")
    if payload.get("schema") != LINT_SCHEMA:
        fail(f"schema is {payload.get('schema')!r}")
    counts = payload.get("counts")
    if not isinstance(counts, dict):
        fail("missing counts object")
    for key in ("total", "active", "suppressed"):
        if not isinstance(counts.get(key), int):
            fail(f"counts.{key} missing or not an int")
    findings = payload.get("findings")
    if not isinstance(findings, list):
        fail("findings is not a list")
    if counts["total"] != len(findings):
        fail("counts.total does not match findings length")
    for index, finding in enumerate(findings):
        if not isinstance(finding, dict):
            fail(f"findings[{index}] is not an object")
        for key in ("rule", "family", "path", "line", "message"):
            if key not in finding:
                fail(f"findings[{index}] missing {key!r}")
        if finding["family"] not in FAMILIES:
            fail(f"findings[{index}] has unknown family "
                 f"{finding['family']!r}")
        if not isinstance(finding["line"], int):
            fail(f"findings[{index}].line is not an int")
    active = [f for f in findings if not f.get("suppressed")]
    if counts["active"] != len(active):
        fail("counts.active does not match findings flags")
