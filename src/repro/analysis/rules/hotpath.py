"""Hot-path discipline: the per-packet/per-byte loop stays lean.

``[tool.repro-lint.hotpath] functions`` registers the functions on the
encoder/decoder/cache/region/simulator hot path — the ones the
e2e harness's ``py_calls_per_op`` budgets count.  Inside them:

* no ``logging`` or ``print`` calls — the disabled-telemetry branch
  must cost one attribute load and an ``is None`` check, nothing more;
* no f-strings / ``str.format`` / ``%``-formatting outside a telemetry
  guard (``raise``/``assert`` messages are exempt: unwinding is
  already off the fast path);
* no comprehensions or generator expressions *inside a loop* — each
  iteration would allocate a fresh frame and list on the per-byte
  path;
* calls through a telemetry reference (``profiler``, ``verifier``,
  ...) must sit under an ``if <ref> is not None:`` guard of that same
  reference;
* telemetry attributes must not be re-read (``self.profiler``) inside
  a loop — hoist the load into a local before the loop, the PR-2/PR-3
  single-None-check pattern;
* span *creation* calls (``spans.begin`` / ``spans.packet_begin`` /
  ... — :data:`repro.metrics.spans.SPAN_CREATION_METHODS`) must not
  sit inside an inner loop: one span per packet is the contract, a
  span per byte/region would dominate the run being measured.

A second rule, ``hotpath-scalar-boxing``, holds the same functions to
reading array slots as plain ints: ``int(arr[i])`` first boxes a numpy
scalar and then converts it, where ``arr.item(i)`` returns the int
directly at about half the cost.  A subscript that holds a
string to parse is a real conversion; none sits on the hot path, and
one that ever does takes a pragma with its reason.

The roster itself is checked too: an entry that names no function in
the linted tree is a finding (``hotpath-unknown-function``), because
the checks above silently skip it — a renamed or deleted hot function
would otherwise drop out of the discipline unnoticed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple

from ...metrics.spans import SPAN_CREATION_METHODS
from ..astutil import ParsedFile
from ..config import LintConfig
from ..findings import Finding
from ..project import ProjectModel, _walk_scope
from ..registry import rule

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _guard_exprs(test: ast.AST, telemetry: Set[str]) -> Set[str]:
    """Telemetry references proven non-None by an ``if`` test.

    Recognises ``X is not None`` and conjunctions containing it, for
    ``X`` whose terminal name is a registered telemetry attribute.
    """
    guards: Set[str] = set()
    candidates = [test]
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        candidates = list(test.values)
    for candidate in candidates:
        if (isinstance(candidate, ast.Compare)
                and len(candidate.ops) == 1
                and isinstance(candidate.ops[0], ast.IsNot)
                and isinstance(candidate.comparators[0], ast.Constant)
                and candidate.comparators[0].value is None
                and _terminal_name(candidate.left) in telemetry):
            guards.add(ast.unparse(candidate.left))
    return guards


@dataclass
class _Scan:
    parsed: ParsedFile
    qualname: str
    telemetry: Set[str]
    findings: List[Finding] = field(default_factory=list)

    def add(self, rule_name: str, node: ast.AST, message: str,
            fixable: bool = False, fix: str = "") -> None:
        self.findings.append(Finding(
            rule=rule_name, path=self.parsed.relpath, line=node.lineno,
            col=node.col_offset, scope=self.qualname, message=message,
            fixable=fixable, fix=fix))

    # ------------------------------------------------------------------

    def scan(self, node: ast.AST, guards: Set[str], loops: int,
             raising: bool) -> None:
        for child in ast.iter_child_nodes(node):
            self.visit(child, guards, loops, raising)

    def visit(self, node: ast.AST, guards: Set[str], loops: int,
              raising: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are their own (cold) scopes
        if isinstance(node, ast.If):
            new_guards = _guard_exprs(node.test, self.telemetry)
            self.visit(node.test, guards, loops, raising)
            for child in node.body:
                self.visit(child, guards | new_guards, loops, raising)
            for child in node.orelse:
                self.visit(child, guards, loops, raising)
            return
        if isinstance(node, (ast.For, ast.While)):
            if isinstance(node, ast.For):
                self.visit(node.target, guards, loops, raising)
                self.visit(node.iter, guards, loops, raising)
            else:
                self.visit(node.test, guards, loops, raising)
            for child in node.body + node.orelse:
                self.visit(child, guards, loops + 1, raising)
            return
        if isinstance(node, (ast.Raise, ast.Assert)):
            self.scan(node, guards, loops, raising=True)
            return
        if isinstance(node, _COMPREHENSIONS):
            if loops:
                self.add(
                    "hotpath-comprehension-in-loop", node,
                    "comprehension allocates inside a hot loop; hoist it "
                    "or accumulate into a preallocated structure",
                    fixable=True,
                    fix="restructure as an explicit append/update in the "
                        "existing loop, or hoist the allocation")
            self.scan(node, guards, loops, raising)
            return
        if isinstance(node, ast.JoinedStr):
            if not raising and not guards:
                self.add(
                    "hotpath-format", node,
                    "f-string formats on the hot path outside a telemetry "
                    "guard (it allocates even when telemetry is off)",
                    fixable=True,
                    fix="move the formatting under the `is not None` "
                        "telemetry guard or into the raise that uses it")
            # One finding per f-string: format specs parse as nested
            # JoinedStr nodes, so mark the interior as already reported.
            self.scan(node, guards, loops, raising=True)
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                and isinstance(node.left, ast.Constant) \
                and isinstance(node.left.value, str):
            if not raising and not guards:
                self.add(
                    "hotpath-format", node,
                    "%-formatting on the hot path outside a telemetry "
                    "guard",
                    fixable=True,
                    fix="guard it behind the telemetry None-check or move "
                        "it off the hot path")
            self.scan(node, guards, loops, raising)
            return
        if isinstance(node, ast.Call):
            self._check_call(node, guards, loops, raising)
            self.scan(node, guards, loops, raising)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in self.telemetry and loops:
                self.add(
                    "hotpath-telemetry-load", node,
                    f"telemetry attribute .{node.attr} re-read inside a "
                    "hot loop; hoist it into a local before the loop "
                    "(single None-check discipline)",
                    fixable=True,
                    fix=f"bind `{node.attr} = {ast.unparse(node)}` before "
                        "the loop and test the local")
            self.scan(node, guards, loops, raising)
            return
        self.scan(node, guards, loops, raising)

    def _check_call(self, node: ast.Call, guards: Set[str], loops: int,
                    raising: bool) -> None:
        dotted = self.parsed.resolve_call(node.func)
        if dotted is not None and (dotted == "logging"
                                   or dotted.startswith("logging.")):
            self.add(
                "hotpath-logging", node,
                f"{dotted}() call on the hot path; even a disabled logger "
                "formats its arguments",
                fixable=True,
                fix="route through the telemetry/flight-recorder hooks "
                    "behind their None-check instead")
            return
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.add(
                "hotpath-logging", node,
                "print() call on the hot path",
                fixable=True,
                fix="use the telemetry hooks or drop the output")
            return
        # str.format on a literal
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "format" \
                and isinstance(node.func.value, ast.Constant) \
                and isinstance(node.func.value.value, str):
            if not raising and not guards:
                self.add(
                    "hotpath-format", node,
                    "str.format on the hot path outside a telemetry guard",
                    fixable=True,
                    fix="guard it behind the telemetry None-check")
            return
        # Calls through a telemetry reference must be guarded by the
        # exact same reference.
        if isinstance(node.func, ast.Attribute):
            base = node.func.value
            name = _terminal_name(base)
            if name in self.telemetry:
                if ast.unparse(base) not in guards:
                    self.add(
                        "hotpath-telemetry-guard", node,
                        f"call through telemetry reference "
                        f"{ast.unparse(base)} without an enclosing "
                        f"`if {ast.unparse(base)} is not None:` guard",
                        fixable=True,
                        fix="wrap the call in the single None-check the "
                            "hot-path budget assumes")
                if node.func.attr in SPAN_CREATION_METHODS and loops:
                    self.add(
                        "hotpath-span-in-loop", node,
                        f"span creation .{node.func.attr}() inside a hot "
                        "loop; spans are per-packet, not per-iteration — "
                        "a span per byte/region would dominate the run "
                        "being measured",
                        fixable=True,
                        fix="create the span once before the loop and "
                            "attach aggregates as end() tags")


def _hot_functions_in(parsed: ParsedFile, config: LintConfig,
                      project: ProjectModel
                      ) -> Iterator[Tuple[str, ast.AST]]:
    if parsed.module is None:
        return
    wanted = set(config.hot_functions)
    for fn in project.functions.values():
        if fn.module == parsed.module and fn.id in wanted:
            yield fn.qualname, fn.node


@rule("hotpath-discipline")
def check_hotpath(parsed: ParsedFile, config: LintConfig,
                  project: ProjectModel) -> List[Finding]:
    """Registered hot functions obey the no-alloc/None-check rules.

    Emits findings under the specific rule ids
    ``hotpath-logging``/``hotpath-format``/
    ``hotpath-comprehension-in-loop``/``hotpath-telemetry-guard``/
    ``hotpath-telemetry-load``/``hotpath-span-in-loop`` (select them
    via the ``hotpath`` family).
    """
    telemetry = set(config.telemetry_attrs)
    findings: List[Finding] = []
    for qualname, fn_node in _hot_functions_in(parsed, config, project):
        scan = _Scan(parsed=parsed, qualname=qualname, telemetry=telemetry)
        assert isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for statement in fn_node.body:
            scan.visit(statement, guards=set(), loops=0, raising=False)
        findings.extend(scan.findings)
    return findings


@rule("hotpath-scalar-boxing")
def check_scalar_boxing(parsed: ParsedFile, config: LintConfig,
                        project: ProjectModel) -> List[Finding]:
    """Registered hot functions read array slots with ``.item()``."""
    findings: List[Finding] = []
    for qualname, fn_node in _hot_functions_in(parsed, config, project):
        assert isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _walk_scope(fn_node.body):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "int"
                    and len(node.args) == 1 and not node.keywords
                    and isinstance(node.args[0], ast.Subscript)):
                continue
            subscript = node.args[0]
            item = (f"{ast.unparse(subscript.value)}"
                    f".item({ast.unparse(subscript.slice)})")
            findings.append(Finding(
                rule="hotpath-scalar-boxing", path=parsed.relpath,
                line=node.lineno, col=node.col_offset, scope=qualname,
                message=f"{ast.unparse(node)} boxes a numpy scalar on the "
                        f"hot path before converting it; {item} returns "
                        "the plain int directly",
                fixable=True,
                fix=f"read the slot with {item}"))
    return findings


@rule("hotpath-unknown-function", scope="project")
def check_roster(files: List[ParsedFile], config: LintConfig,
                 project: ProjectModel) -> List[Finding]:
    """Every ``[tool.repro-lint.hotpath].functions`` entry names a function."""
    unknown = [entry for entry in config.hot_functions
               if entry not in project.functions]
    pyproject = config.root / "pyproject.toml"
    if not unknown or not pyproject.is_file():
        return []
    lines = pyproject.read_text(encoding="utf-8").splitlines()
    findings: List[Finding] = []
    for entry in unknown:
        # Anchor at the line that spells the entry; one the file does
        # not spell came from the built-in default roster, which makes
        # no claim about this tree.
        line = next((number for number, text in enumerate(lines, start=1)
                     if f'"{entry}"' in text or f"'{entry}'" in text), None)
        if line is None:
            continue
        findings.append(Finding(
            rule="hotpath-unknown-function", path="pyproject.toml",
            line=line,
            message=f"hot-path roster entry {entry} names no function in "
                    "the linted tree, so no hotpath rule checks it",
            fixable=True,
            fix="correct the dotted name, or drop the entry if the "
                "function is gone"))
    return findings
