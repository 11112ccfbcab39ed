"""Robustness hygiene: failure-handling anti-patterns.

The verification subsystem (PR 4) only works if violations travel:
an ``except`` that silently swallows :class:`InvariantViolation`
converts a caught livelock into a green run.  Bare ``except:`` and
mutable default arguments are the classic Python footguns that have
already caused real divergence bugs in cache/policy code elsewhere.
"""

from __future__ import annotations

import ast
import subprocess
from typing import List

from ..astutil import ParsedFile
from ..config import LintConfig
from ..findings import Finding
from ..project import ProjectModel
from ..registry import rule

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}


@rule("hygiene-bare-except")
def check_bare_except(parsed: ParsedFile, config: LintConfig,
                      project: ProjectModel) -> List[Finding]:
    """No bare ``except:`` — it catches KeyboardInterrupt/SystemExit."""
    findings: List[Finding] = []
    scopes = project.scopes(parsed)
    for node in ast.walk(parsed.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(Finding(
                rule="hygiene-bare-except", path=parsed.relpath,
                line=node.lineno, col=node.col_offset,
                scope=scopes.get(id(node), ""),
                message="bare except: catches KeyboardInterrupt and "
                        "SystemExit; name the exceptions you mean",
                fixable=True, fix="catch Exception (or narrower)"))
    return findings


@rule("hygiene-mutable-default")
def check_mutable_default(parsed: ParsedFile, config: LintConfig,
                          project: ProjectModel) -> List[Finding]:
    """No mutable default arguments (shared across calls)."""
    findings: List[Finding] = []
    scopes = project.scopes(parsed)
    for node in ast.walk(parsed.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
                and not default.args and not default.keywords)
            if mutable:
                findings.append(Finding(
                    rule="hygiene-mutable-default", path=parsed.relpath,
                    line=default.lineno, col=default.col_offset,
                    scope=scopes.get(id(node), node.name),
                    message=f"mutable default argument in {node.name}(); "
                            "the object is shared across every call",
                    fixable=True,
                    fix="default to None and create the container in the "
                        "body (or use an immutable default)"))
    return findings


@rule("hygiene-tracked-bytecode", scope="project")
def check_tracked_bytecode(files: List[ParsedFile], config: LintConfig,
                           project: ProjectModel) -> List[Finding]:
    """No compiled bytecode committed to the repository.

    ``.pyc`` files are interpreter- and timestamp-specific build
    artifacts; tracking them guarantees noisy diffs and platform skew.
    Outside a git checkout (synthetic test trees) the rule is silent.
    """
    try:
        listing = subprocess.run(
            ["git", "ls-files", "--cached", "-z",
             "*.pyc", "*.pyo", "*__pycache__*"],
            cwd=config.root, capture_output=True, text=True, timeout=30)
    except (FileNotFoundError, subprocess.SubprocessError, OSError):
        return []
    if listing.returncode != 0:
        return []  # not a git checkout
    findings: List[Finding] = []
    for tracked in sorted(p for p in listing.stdout.split("\0") if p):
        findings.append(Finding(
            rule="hygiene-tracked-bytecode", path=tracked, line=1,
            message="compiled bytecode is tracked by git; build "
                    "artifacts never belong in the repository",
            fixable=True,
            fix="git rm --cached the file and keep __pycache__/ and "
                "*.pyc in .gitignore"))
    return findings


def _names_invariant_violation(type_node: ast.AST) -> bool:
    if isinstance(type_node, ast.Tuple):
        return any(_names_invariant_violation(element)
                   for element in type_node.elts)
    name = None
    if isinstance(type_node, ast.Name):
        name = type_node.id
    elif isinstance(type_node, ast.Attribute):
        name = type_node.attr
    return name in ("InvariantViolation", "Exception", "BaseException")


def _reraises_or_reads(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or names what it caught."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if handler.name is not None and isinstance(node, ast.Name) and \
                node.id == handler.name:
            return True
    return False


@rule("hygiene-swallowed-violation")
def check_swallowed_violation(parsed: ParsedFile, config: LintConfig,
                              project: ProjectModel) -> List[Finding]:
    """No handler that silently swallows InvariantViolation.

    Flags ``except InvariantViolation`` (or a broad ``except
    Exception``/``BaseException``, which would swallow it too) that
    neither re-raises nor names the exception it caught — a caught
    oracle trip must be re-raised or recorded.  The test is syntactic
    on purpose: it needs no call graph, so it also sees handlers over
    opaque calls (callbacks, duck-typed receivers), and the harness
    handlers that record ``exc.summary()`` pass by what they do.
    """
    findings: List[Finding] = []
    scopes = project.scopes(parsed)
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        if not _names_invariant_violation(node.type):
            continue
        if _reraises_or_reads(node):
            continue
        caught = ast.unparse(node.type)
        findings.append(Finding(
            rule="hygiene-swallowed-violation", path=parsed.relpath,
            line=node.lineno, col=node.col_offset,
            scope=scopes.get(id(node), ""),
            message=f"except {caught} neither re-raises nor reads what "
                    "it caught, so it would silently swallow an "
                    "InvariantViolation; re-raise it, record it, or "
                    "narrow the catch",
            fixable=True,
            fix="re-raise InvariantViolation (or handle it "
                "explicitly) before discarding other errors"))
    return findings
