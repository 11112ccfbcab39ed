"""Shared AST helpers: one parse per file, import resolution, scopes.

:class:`ParsedFile` is the unit every rule consumes — the engine
parses each source file exactly once and hands the same tree to all
rules, as the per-file work is dominated by ``ast.parse``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .pragmas import Pragma


@dataclass
class ImportEdge:
    """One runtime import statement, resolved to a dotted module."""

    target: str            # dotted module actually imported
    line: int
    type_checking: bool    # gated under ``if TYPE_CHECKING:``


@dataclass
class ParsedFile:
    """One source file, parsed once and shared by every rule."""

    path: str              # absolute path on disk
    relpath: str           # repo-root-relative, posix separators
    module: Optional[str]  # dotted module for files under a package root
    is_package: bool       # True for __init__.py
    text: str
    tree: ast.Module
    pragmas: Dict[int, List[Pragma]] = field(default_factory=dict)
    pragma_findings: List[Finding] = field(default_factory=list)

    #: Alias maps for resolving dotted call targets (built lazily).
    _module_aliases: Optional[Dict[str, str]] = None
    _symbol_aliases: Optional[Dict[str, str]] = None

    def import_edges(self, known_modules: Set[str]) -> List[ImportEdge]:
        """Every import in the file, resolved to dotted module names.

        ``from pkg import name`` resolves to ``pkg.name`` when that is
        a known module (importing a submodule), else to ``pkg`` (the
        symbol lives in ``pkg``).  Imports under ``if TYPE_CHECKING:``
        are marked so layering can exempt annotation-only coupling.
        """
        edges: List[ImportEdge] = []
        type_checking_nodes = _type_checking_descendants(self.tree)
        for node in ast.walk(self.tree):
            gated = id(node) in type_checking_nodes
            if isinstance(node, ast.Import):
                for alias in node.names:
                    edges.append(ImportEdge(alias.name, node.lineno, gated))
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    candidate = f"{base}.{alias.name}" if base else alias.name
                    target = candidate if candidate in known_modules else base
                    if target:
                        edges.append(ImportEdge(target, node.lineno, gated))
        return edges

    def _resolve_from_base(self, node: ast.ImportFrom) -> Optional[str]:
        """Dotted module a ``from ... import`` statement reads from."""
        if node.level == 0:
            return node.module or ""
        if self.module is None:
            return None
        # Relative import: chop (level - 1) trailing segments off the
        # containing package (the module's own package for plain
        # modules, the module itself for __init__.py).
        parts = self.module.split(".")
        if not self.is_package:
            parts = parts[:-1]
        chop = node.level - 1
        if chop:
            if chop >= len(parts):
                return None
            parts = parts[:-chop]
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts)

    # -- dotted-call resolution ------------------------------------------

    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Resolve a call target to a dotted path via the import maps.

        ``np.random.rand`` -> ``numpy.random.rand``; ``randint`` (after
        ``from random import randint``) -> ``random.randint``; a method
        call on a non-imported object resolves to ``None``.
        """
        self._ensure_aliases()
        assert self._module_aliases is not None
        assert self._symbol_aliases is not None
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        head = node.id
        if head in self._module_aliases:
            return ".".join([self._module_aliases[head]] + parts)
        if head in self._symbol_aliases:
            return ".".join([self._symbol_aliases[head]] + parts)
        return None

    def _ensure_aliases(self) -> None:
        if self._module_aliases is not None:
            return
        modules: Dict[str, str] = {}
        symbols: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c``
                    # binds ``c`` to ``a.b``.
                    modules[bound] = alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module is None:
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name
                    symbols[bound] = f"{node.module}.{alias.name}"
        self._module_aliases = modules
        self._symbol_aliases = symbols


def _type_checking_descendants(tree: ast.Module) -> Set[int]:
    """ids of all nodes inside ``if TYPE_CHECKING:`` blocks."""
    gated: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
        if not is_tc:
            continue
        for child in node.body:
            for descendant in ast.walk(child):
                gated.add(id(descendant))
    return gated


def walk_functions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualname, node)`` for every function/method in a module.

    Qualnames use ``Class.method`` / ``function`` / ``outer.inner``
    forms, matching the dotted tails of registered hot-path entries.
    """

    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")

    yield from visit(tree, "")


def enclosing_scopes(tree: ast.Module) -> Dict[int, str]:
    """Map node id -> qualified name of its innermost enclosing
    function/method (the scope a finding names)."""
    scopes: Dict[int, str] = {}
    for qualname, fn_node in walk_functions(tree):
        for descendant in ast.walk(fn_node):
            scopes[id(descendant)] = qualname
    return scopes
