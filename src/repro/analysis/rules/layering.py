"""Layering rules: the import DAG is architecture, enforced.

The layer order lives in ``[tool.repro-lint.layers]``: a module may
import repro modules whose layer ranks at or below its own.  That one
ordering encodes the repo's three standing prohibitions:

* ``core`` imports nothing from ``sim``/``net``/``gateway``/
  ``metrics``/``experiments`` — the codec must stay a pure library;
* ``sim`` imports nothing from ``net``/``gateway`` — the event engine
  and fault injector are substrate, not protocol;
* ``metrics`` sits *above* every instrumented layer, so gateways,
  links and stacks can only reach telemetry through duck-typed
  attributes (the PR-3 discipline), never an import.

Imports under ``if TYPE_CHECKING:`` are exempt: annotation-only
coupling does not exist at runtime and is how the lower layers keep
precise types without inverting the DAG.

Cycle detection reuses :class:`repro.metrics.depgraph.DependencyGraph`
— modules are nodes, layers are segment keys, and a layer-level import
cycle is exactly a :meth:`segment_cycles` hit on the folded graph.

Some calls are architecture too: the one run sequence, the one place
observers attach, the one builder of the no-DRE twin.
``[tool.repro-lint.call-sites]`` reserves each such call to the
modules allowed to make it (``layering-call-site``).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from ...metrics.depgraph import DependencyGraph
from ..astutil import ParsedFile
from ..config import LintConfig
from ..findings import Finding
from ..project import ProjectModel
from ..registry import rule


def _project_modules(project: ProjectModel) -> Set[str]:
    return set(project.modules)


@rule("layering-import", scope="project", fixable=True)
def check_import_dag(files: List[ParsedFile], config: LintConfig,
                     project: ProjectModel) -> List[Finding]:
    """A module may only import repro layers at or below its own."""
    findings: List[Finding] = []
    known = _project_modules(project)
    prefix = config.package + "."
    for parsed in files:
        if parsed.module is None:
            continue  # benchmarks etc. sit outside the DAG
        source_rank = config.layer_rank(parsed.module)
        if source_rank is None:
            findings.append(Finding(
                rule="layering-import", path=parsed.relpath, line=1,
                message=f"module {parsed.module} has no layer: add it to "
                        "[tool.repro-lint.layers] order or assign"))
            continue
        source_layer = config.layer_of(parsed.module)
        for edge in parsed.import_edges(known):
            if edge.type_checking:
                continue
            if edge.target != config.package and \
                    not edge.target.startswith(prefix):
                continue
            target_rank = config.layer_rank(edge.target)
            if target_rank is None:
                findings.append(Finding(
                    rule="layering-import", path=parsed.relpath,
                    line=edge.line,
                    message=f"import of {edge.target} has no layer: add "
                            "it to [tool.repro-lint.layers]"))
                continue
            if target_rank > source_rank:
                target_layer = config.layer_of(edge.target)
                findings.append(Finding(
                    rule="layering-import", path=parsed.relpath,
                    line=edge.line,
                    message=f"{source_layer!r} layer imports {edge.target} "
                            f"from the higher {target_layer!r} layer",
                    fixable=True,
                    fix="depend on the lower layer instead: move the "
                        "shared code down, reference it via a duck-typed "
                        "attribute, or gate a type-only import under "
                        "TYPE_CHECKING"))
    return findings


@rule("layering-cycle", scope="project")
def check_layer_cycles(files: List[ParsedFile], config: LintConfig,
                       project: ProjectModel) -> List[Finding]:
    """No import cycles between layers (folded module graph)."""
    graph = DependencyGraph()
    prefix = config.package + "."
    known = _project_modules(project)
    file_of: Dict[str, str] = {}
    for parsed in files:
        if parsed.module is None:
            continue
        layer = config.layer_of(parsed.module)
        if layer is None:
            continue  # reported by layering-import already
        file_of[layer] = file_of.get(layer, parsed.relpath)
        deps = {edge.target for edge in parsed.import_edges(known)
                if not edge.type_checking
                and (edge.target == config.package
                     or edge.target.startswith(prefix))}
        graph.add_node(parsed.module, deps, segment=layer)
    findings: List[Finding] = []
    for cycle in graph.segment_cycles():
        if len(cycle) == 1:
            continue  # intra-layer imports are free
        names = " -> ".join(str(layer) for layer in cycle)
        findings.append(Finding(
            rule="layering-cycle", path=file_of.get(cycle[0], "pyproject.toml"),
            line=1, scope=str(cycle[0]),
            message=f"import cycle between layers: {names} -> {cycle[0]}"))
    return findings


def _call_names(parsed: ParsedFile, project: ProjectModel,
                func: ast.expr) -> Set[Optional[str]]:
    """The name a call is written with and the one its target is
    imported as: ``Client(...)`` after ``from m import FileClient as
    Client`` names both ``Client`` and ``FileClient``."""
    written = func.attr if isinstance(func, ast.Attribute) else \
        func.id if isinstance(func, ast.Name) else None
    dotted = (project.resolve_dotted(parsed.module, func)
              if parsed.module is not None else parsed.resolve_call(func))
    return {written, dotted.rsplit(".", 1)[-1] if dotted else None}


@rule("layering-call-site")
def check_call_sites(parsed: ParsedFile, config: LintConfig,
                     project: ProjectModel) -> List[Finding]:
    """Calls reserved to one module (``[tool.repro-lint.call-sites]``)."""
    module = parsed.module or ""
    entries = [entry for entry in config.call_sites
               if not any(module == allowed
                          or module.startswith(allowed + ".")
                          for allowed in entry.allow)]
    if not entries:
        return []
    findings: List[Finding] = []
    scopes = project.scopes(parsed)
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.Call):
            continue
        names = _call_names(parsed, project, node.func)
        passed = {keyword.arg: ast.dump(keyword.value)
                  for keyword in node.keywords if keyword.arg is not None}
        for entry in entries:
            if entry.calls and names.isdisjoint(entry.calls):
                continue
            if any(passed.get(keyword) != literal
                   for keyword, literal in entry.keywords):
                continue
            findings.append(Finding(
                rule="layering-call-site", path=parsed.relpath,
                line=node.lineno, col=node.col_offset,
                scope=scopes.get(id(node), ""),
                message=f"{ast.unparse(node.func)}(...) is reserved to "
                        f"{', '.join(entry.allow)} (call-sites."
                        f"{entry.name}): {entry.why}"))
    return findings
