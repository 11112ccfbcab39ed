"""Whole-program project model: symbols + a conservative call graph.

One build pass over every :class:`~repro.analysis.astutil.ParsedFile`
produces the interprocedural substrate the ``purity`` rule family
walks:

* a **symbol table** — every module, class (with declared-attribute
  types where inferable) and function/method, keyed by fully-qualified
  dotted id (``repro.core.cache.ByteCache.insert_packet``);
* a **call graph** — direct calls through the per-file import alias
  maps (including relative imports), ``self.method()`` resolution
  through declared base classes, method resolution on attributes and
  locals whose class is inferable from an annotation or a constructor
  call, and constructor calls landing on ``__init__`` (or, for a
  dataclass, the ``__post_init__`` its generated one runs).  Calls on
  duck-typed receivers stay *opaque* (recorded with a ``None`` callee)
  — the analysis is deliberately conservative rather than complete;
* per-function **effect records** — module-global mutations — the
  raw material for ``purity-global-mutation``.

The model is built exactly once per lint run and handed to every rule
alongside the parsed files, the same sharing discipline as the
one-parse-per-file rule for ASTs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .astutil import ParsedFile, enclosing_scopes, walk_functions
from .config import LintConfig

#: Pseudo-function qualname for statements at module scope.
MODULE_SCOPE = "<module>"

#: Method names that mutate their receiver in place (container stores).
MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "update", "extend", "insert",
    "setdefault", "pop", "popitem", "popleft", "clear", "remove",
    "discard", "sort", "reverse", "write", "writelines",
})


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    id: str                      # repro.core.cache.ByteCache.insert_packet
    module: str
    qualname: str                # ByteCache.insert_packet / outer.inner
    relpath: str
    line: int
    node: ast.AST                # FunctionDef | AsyncFunctionDef
    class_id: Optional[str]      # owning class id for methods
    params: List[str]            # positional-or-keyword names, in order
    is_nested: bool              # defined inside another function


@dataclass
class ClassInfo:
    """One class, with whatever attribute types are inferable."""

    id: str
    module: str
    name: str
    relpath: str
    line: int
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)     # resolved class ids
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn id
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> class id


@dataclass
class CallSite:
    """One call expression, resolved as far as the model can see.

    ``callee`` is a project function id when resolution succeeded,
    else ``None``; ``external`` carries the dotted name of a call that
    resolved outside the project (``json.dump``) — both ``None`` means
    a duck-typed receiver the model treats as opaque.
    """

    caller: str                  # function id, or module id + ".<module>"
    callee: Optional[str]
    external: Optional[str]
    relpath: str
    line: int
    node: ast.Call


@dataclass
class GlobalMutation:
    """A write to module-global state inside a function."""

    function: str                # function id
    name: str                    # the module-level name mutated
    relpath: str
    line: int
    detail: str                  # e.g. "CACHE[key] = ..." / "global hits += 1"


class ProjectModel:
    """Symbols + call graph for the whole linted tree, built once."""

    def __init__(self, files: List[ParsedFile], config: LintConfig) -> None:
        self.config = config
        self.files = files
        self.modules: Dict[str, ParsedFile] = {
            parsed.module: parsed for parsed in files
            if parsed.module is not None}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: Dict[str, List[CallSite]] = {}
        self.mutations: Dict[str, List[GlobalMutation]] = {}
        #: module -> names assigned at module scope (mutation targets).
        self.module_globals: Dict[str, Set[str]] = {}
        #: module -> bound name -> dotted target (imports, incl. relative).
        self._aliases: Dict[str, Dict[str, str]] = {}
        self._scopes: Dict[str, Dict[int, str]] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        known = set(self.modules)
        for parsed in self.files:
            if parsed.module is None:
                continue
            self._aliases[parsed.module] = _build_aliases(parsed, known)
            self._collect_symbols(parsed)
        for parsed in self.files:
            if parsed.module is None:
                continue
            self._resolve_class_details(parsed)
        for parsed in self.files:
            if parsed.module is None:
                continue
            self._collect_effects(parsed)

    def _collect_symbols(self, parsed: ParsedFile) -> None:
        module = parsed.module
        assert module is not None
        self.module_globals[module] = _module_level_names(parsed.tree)
        for qualname, node in walk_functions(parsed.tree):
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            parts = qualname.split(".")
            fn_id = f"{module}.{qualname}"
            parent = ".".join(parts[:-1])
            # walk_functions yields parents before children, so a
            # parent already present in the table means a nested def.
            is_nested = bool(parent) and f"{module}.{parent}" in self.functions
            self.functions[fn_id] = FunctionInfo(
                id=fn_id, module=module, qualname=qualname,
                relpath=parsed.relpath, line=node.lineno, node=node,
                class_id=None,
                params=[arg.arg for arg in node.args.args],
                is_nested=is_nested)
        for cls_qualname, cls_node in _walk_classes(parsed.tree):
            cls_id = f"{module}.{cls_qualname}"
            info = ClassInfo(
                id=cls_id, module=module, name=cls_qualname,
                relpath=parsed.relpath, line=cls_node.lineno, node=cls_node)
            self.classes[cls_id] = info
        # Second pass: attach methods and fix class ids on FunctionInfo.
        for fn_id, fn in list(self.functions.items()):
            if fn.module != module:
                continue
            parts = fn.qualname.split(".")
            if len(parts) > 1:
                owner = f"{module}." + ".".join(parts[:-1])
                if owner in self.classes:
                    fn.class_id = owner
                    self.classes[owner].methods[parts[-1]] = fn_id

    def _resolve_class_details(self, parsed: ParsedFile) -> None:
        module = parsed.module
        assert module is not None
        for cls in self.classes.values():
            if cls.module != module:
                continue
            for base in cls.node.bases:
                base_id = self._resolve_type(module, base)
                if base_id is not None and base_id in self.classes:
                    cls.bases.append(base_id)
            self._infer_attr_types(module, cls)

    def _infer_attr_types(self, module: str, cls: ClassInfo) -> None:
        # Class-level annotations: ``cache: ByteCache``.
        for statement in cls.node.body:
            if isinstance(statement, ast.AnnAssign) and \
                    isinstance(statement.target, ast.Name):
                type_id = self._resolve_type(module, statement.annotation)
                if type_id is not None and type_id in self.classes:
                    cls.attr_types[statement.target.id] = type_id
        # ``self.x = ClassName(...)`` / ``self.x: T = ...`` in methods.
        for method_id in cls.methods.values():
            fn = self.functions[method_id]
            for node in ast.walk(fn.node):
                target: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, annotation, value = (node.target,
                                                 node.annotation, node.value)
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                type_id = None
                if annotation is not None:
                    type_id = self._resolve_type(module, annotation)
                if type_id is None and isinstance(value, ast.Call):
                    type_id = self._resolve_type(module, value.func)
                if type_id is not None and type_id in self.classes:
                    cls.attr_types.setdefault(target.attr, type_id)

    def _collect_effects(self, parsed: ParsedFile) -> None:
        module = parsed.module
        assert module is not None
        globals_here = self.module_globals[module]
        # Module-level statements run under a pseudo-function scope so
        # import-time calls still appear in the graph.
        module_fn = f"{module}.{MODULE_SCOPE}"
        for owner_id, body, fn in self._scopes_of(parsed, module_fn):
            local_types = self.local_types(module, fn)
            declared_globals = _declared_globals(fn.node) if fn else set()
            locals_bound = scope_locals(fn.node) if fn else set()
            sites = self.calls.setdefault(owner_id, [])
            for node in _walk_scope(body):
                if isinstance(node, ast.Call):
                    callee, external = self.resolve_call_in(
                        module, fn, local_types, node.func)
                    sites.append(CallSite(
                        caller=owner_id, callee=callee, external=external,
                        relpath=parsed.relpath, line=node.lineno, node=node))
                if fn is not None:
                    self._record_mutation(
                        owner_id, parsed, node, globals_here,
                        declared_globals, locals_bound)

    def _scopes_of(self, parsed: ParsedFile, module_fn: str
                   ) -> Iterator[Tuple[str, List[ast.stmt],
                                       Optional[FunctionInfo]]]:
        module = parsed.module
        assert module is not None
        module_body = [statement for statement in parsed.tree.body]
        yield module_fn, module_body, None
        for fn in self.functions.values():
            if fn.module != module:
                continue
            assert isinstance(fn.node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
            yield fn.id, fn.node.body, fn

    def _record_mutation(self, owner_id: str, parsed: ParsedFile,
                         node: ast.AST, globals_here: Set[str],
                         declared_globals: Set[str],
                         locals_bound: Set[str]) -> None:
        def is_global(name: str) -> bool:
            if name in declared_globals:
                return True
            return name in globals_here and name not in locals_bound

        mutation: Optional[GlobalMutation] = None
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                # ``global X; X = ...`` rebinding
                if isinstance(target, ast.Name) and \
                        target.id in declared_globals:
                    mutation = GlobalMutation(
                        function=owner_id, name=target.id,
                        relpath=parsed.relpath, line=node.lineno,
                        detail=f"rebinds module global {target.id!r}")
                # ``CACHE[key] = ...`` / ``CACHE.field = ...``
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if isinstance(base, ast.Name) and \
                        isinstance(target, (ast.Subscript, ast.Attribute)) \
                        and is_global(base.id):
                    mutation = GlobalMutation(
                        function=owner_id, name=base.id,
                        relpath=parsed.relpath, line=node.lineno,
                        detail=f"stores into module global {base.id!r}")
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in MUTATING_METHODS and \
                isinstance(node.func.value, ast.Name) and \
                is_global(node.func.value.id):
            mutation = GlobalMutation(
                function=owner_id, name=node.func.value.id,
                relpath=parsed.relpath, line=node.lineno,
                detail=f"calls .{node.func.attr}() on module global "
                       f"{node.func.value.id!r}")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if isinstance(base, ast.Name) and is_global(base.id) and \
                        not isinstance(target, ast.Name):
                    mutation = GlobalMutation(
                        function=owner_id, name=base.id,
                        relpath=parsed.relpath, line=node.lineno,
                        detail=f"deletes from module global {base.id!r}")
        if mutation is not None:
            self.mutations.setdefault(owner_id, []).append(mutation)

    # -- resolution --------------------------------------------------------

    def local_types(self, module: str, fn: Optional[FunctionInfo]
                    ) -> Dict[str, str]:
        """Local name -> class/dotted type inferred from this scope.

        Recognises annotated parameters (``def f(cache: ByteCache)``),
        plain constructor assignments (``pool = ProcessPoolExecutor()``)
        and ``with Ctor(...) as name:`` bindings.  External types keep
        their dotted names so rules can match on them too.
        """
        types: Dict[str, str] = {}
        if fn is None:
            return types
        assert isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in list(fn.node.args.args) + list(fn.node.args.kwonlyargs):
            if arg.annotation is not None:
                type_id = self._resolve_type(module, arg.annotation,
                                             allow_external=True)
                if type_id is not None:
                    types[arg.arg] = type_id
        for node in _walk_scope(fn.node.body):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    isinstance(node.value, ast.Call):
                type_id = self._resolve_type(module, node.value.func,
                                             allow_external=True)
                if type_id is not None:
                    types[node.targets[0].id] = type_id
            elif isinstance(node, ast.With):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call) and \
                            isinstance(item.optional_vars, ast.Name):
                        type_id = self._resolve_type(
                            module, item.context_expr.func,
                            allow_external=True)
                        if type_id is not None:
                            types[item.optional_vars.id] = type_id
        return types

    def _resolve_type(self, module: str, node: ast.AST,
                      allow_external: bool = False) -> Optional[str]:
        """Resolve an annotation or constructor callee to a class id."""
        # Unwrap Optional[T] / "T" minimally.
        if isinstance(node, ast.Subscript):
            head = self.resolve_dotted(module, node.value)
            if head is not None and head.rsplit(".", 1)[-1] in (
                    "Optional", "Final", "ClassVar", "Annotated"):
                inner = node.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                return self._resolve_type(module, inner, allow_external)
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            candidate = f"{module}.{node.value}"
            return candidate if candidate in self.classes else None
        dotted = self.resolve_dotted(module, node)
        if dotted is None:
            return None
        if dotted in self.classes:
            return dotted
        if allow_external and dotted not in self.functions:
            return dotted
        return None

    def resolve_dotted(self, module: str, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted id via aliases.

        Local (same-module) classes and functions resolve to their
        project ids; imported names resolve through the module's alias
        map (relative imports included); everything else is ``None``.
        """
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        parts.reverse()
        head = cursor.id
        aliases = self._aliases.get(module, {})
        if head in aliases:
            return ".".join([aliases[head]] + parts)
        local = f"{module}.{head}"
        if local in self.classes or local in self.functions:
            return ".".join([local] + parts) if parts else local
        if not parts:
            return None
        return None

    def resolve_call_in(self, module: str, fn: Optional[FunctionInfo],
                        local_types: Dict[str, str], func: ast.AST
                        ) -> Tuple[Optional[str], Optional[str]]:
        """Resolve one call target -> (project fn id, external dotted).

        Exactly one of the two is non-None on success; both are None
        for opaque (duck-typed) targets.
        """
        # self.method() / self.attr.method()
        if isinstance(func, ast.Attribute):
            chain: List[str] = []
            cursor: ast.AST = func
            while isinstance(cursor, ast.Attribute):
                chain.append(cursor.attr)
                cursor = cursor.value
            chain.reverse()
            if isinstance(cursor, ast.Name):
                head = cursor.id
                if head == "self" and fn is not None and \
                        fn.class_id is not None:
                    resolved = self._resolve_self_chain(fn.class_id, chain)
                    if resolved is not None:
                        return resolved, None
                elif head in local_types and len(chain) == 1:
                    method = self.lookup_method(local_types[head], chain[0])
                    if method is not None:
                        return method, None
                    if local_types[head] not in self.classes:
                        # External receiver type: dotted external target.
                        return None, f"{local_types[head]}.{chain[0]}"
        dotted = self.resolve_dotted(module, func)
        if dotted is None:
            # Fall back to the per-file import maps for plain external
            # dotted calls (``np.random.rand`` -> ``numpy.random.rand``).
            parsed = self.modules.get(module)
            if parsed is not None:
                external = parsed.resolve_call(func)
                if external is not None and \
                        not external.startswith(self.config.package + "."):
                    return None, external
            if isinstance(func, ast.Name):
                return None, func.id  # builtins: id, print, open, ...
            return None, None
        if dotted in self.functions:
            return dotted, None
        if dotted in self.classes:
            # A dataclass's generated __init__ runs __post_init__.
            init = (self.lookup_method(dotted, "__init__")
                    or self.lookup_method(dotted, "__post_init__"))
            return (init, None) if init is not None else (None, dotted)
        # repro-internal but unresolved (re-exports) or external dotted.
        return None, dotted

    def _resolve_self_chain(self, class_id: str,
                            chain: List[str]) -> Optional[str]:
        if len(chain) == 1:
            return self.lookup_method(class_id, chain[0])
        if len(chain) == 2:
            attr_type = self._attr_type(class_id, chain[0])
            if attr_type is not None:
                return self.lookup_method(attr_type, chain[1])
        return None

    def _attr_type(self, class_id: str, attr: str) -> Optional[str]:
        for candidate in self._mro(class_id):
            cls = self.classes.get(candidate)
            if cls is not None and attr in cls.attr_types:
                return cls.attr_types[attr]
        return None

    def lookup_method(self, class_id: str, method: str) -> Optional[str]:
        """Resolve ``method`` through the class and its declared bases."""
        for candidate in self._mro(class_id):
            cls = self.classes.get(candidate)
            if cls is not None and method in cls.methods:
                return cls.methods[method]
        return None

    def _mro(self, class_id: str) -> Iterator[str]:
        seen: Set[str] = set()
        stack = [class_id]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            yield current
            cls = self.classes.get(current)
            if cls is not None:
                stack.extend(cls.bases)

    # -- shared per-file caches -------------------------------------------

    def scopes(self, parsed: ParsedFile) -> Dict[int, str]:
        """Memoized ``enclosing_scopes`` for one file (shared by rules)."""
        cached = self._scopes.get(parsed.relpath)
        if cached is None:
            cached = enclosing_scopes(parsed.tree)
            self._scopes[parsed.relpath] = cached
        return cached

    def aliases_of(self, module: str) -> Dict[str, str]:
        return self._aliases.get(module, {})

    # -- graph walks -------------------------------------------------------

    def reachable_from(self, entry: str, max_depth: int = 64
                       ) -> Dict[str, Tuple[Optional[str], Optional[CallSite]]]:
        """BFS over project call edges from ``entry``.

        Returns ``{fn_id: (parent fn_id, call site in parent)}`` for
        every reached function (entry maps to ``(None, None)``), so
        callers can reconstruct the hop chain to any reached node.
        """
        parents: Dict[str, Tuple[Optional[str], Optional[CallSite]]] = {
            entry: (None, None)}
        frontier = [entry]
        depth = 0
        while frontier and depth < max_depth:
            next_frontier: List[str] = []
            for fn_id in frontier:
                for site in self.calls.get(fn_id, []):
                    if site.callee is None or site.callee in parents:
                        continue
                    parents[site.callee] = (fn_id, site)
                    next_frontier.append(site.callee)
            frontier = next_frontier
            depth += 1
        return parents

    def chain_to(self, parents: Dict[str, Tuple[Optional[str],
                                                Optional[CallSite]]],
                 target: str) -> List[CallSite]:
        """Call-site hop chain from the BFS entry down to ``target``."""
        chain: List[CallSite] = []
        cursor: Optional[str] = target
        while cursor is not None:
            parent, site = parents[cursor]
            if site is not None:
                chain.append(site)
            cursor = parent
        chain.reverse()
        return chain


# -- module-scope helpers --------------------------------------------------


def _build_aliases(parsed: ParsedFile, known: Set[str]) -> Dict[str, str]:
    """Bound name -> dotted target, with relative imports resolved."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(parsed.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    aliases[alias.name.split(".")[0]] = \
                        alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = parsed._resolve_from_base(node)
            if base is None:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                target = f"{base}.{alias.name}" if base else alias.name
                aliases[bound] = target
    return aliases


def _walk_classes(tree: ast.Module) -> Iterator[Tuple[str, ast.ClassDef]]:
    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str,
                                                            ast.ClassDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from visit(child, f"{qualname}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{prefix}{child.name}.")

    yield from visit(tree, "")


def _walk_scope(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested def/class scopes."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue  # nested scope: yielded as a statement, not entered
        for child in ast.iter_child_nodes(node):
            stack.append(child)


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for statement in tree.body:
        targets: List[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
        elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        names.add(element.id)
    return names


def _declared_globals(node: ast.AST) -> Set[str]:
    declared: Set[str] = set()
    for child in _walk_scope(getattr(node, "body", [])):
        if isinstance(child, ast.Global):
            declared.update(child.names)
    return declared


def scope_locals(node: ast.AST) -> Set[str]:
    """Names assigned in this scope (shadowing any module global)."""
    bound: Set[str] = set()
    declared = _declared_globals(node)
    for child in _walk_scope(getattr(node, "body", [])):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign)) and \
                isinstance(child.target, ast.Name):
            bound.add(child.target.id)
        elif isinstance(child, ast.For) and \
                isinstance(child.target, ast.Name):
            bound.add(child.target.id)
        elif isinstance(child, ast.With):
            for item in child.items:
                if isinstance(item.optional_vars, ast.Name):
                    bound.add(item.optional_vars.id)
    return bound - declared
