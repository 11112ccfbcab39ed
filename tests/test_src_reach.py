"""Nothing in ``src/`` that only tests reach.

Every public function, method and property under ``src/repro`` must
have its name read somewhere a user of the package reaches it:
elsewhere in ``src/`` (outside its own definition), in ``benchmarks/``,
``examples/`` or ``.github/``.  A name that only ``tests/`` reads is an
entry point kept for tests; move it into the tests or delete it, or
keep it in :data:`ALLOWLIST` with the reason.

A read is a name or attribute load, or an identifier-shaped string
constant (``getattr`` and registry lookups name their targets that
way), except the strings of an ``__all__``.  A method or property is
reached only through an attribute load or a string: a bare name that
reads like it is a local variable, a parameter or a nested function,
never the method.  An import is not a read:
a name re-exported and never used is still unreached.  Functions
registered by a decorator call (the lint rules' ``@rule(...)``) are
reached through their registry and are skipped.  Parameters are out of
scope: positional calls would make a parameter scan noisy.
"""

import ast
import re
import shutil
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``path:qualified name`` -> why it stays although only tests read it.
ALLOWLIST: Dict[str, str] = {
    "repro/sim/rng.py:RngRegistry.numpy_stream":
        "the determinism-numpy-global lint finding names it as the fix",
    "repro/workload/corpus.py:clear_corpus_cache":
        "the only way to empty the process-wide corpus memo short of "
        "reading its private dict; tests bound their memory with it",
}

#: Decorators that define a function rather than register it.
_DEFINING = {"property", "setter", "classmethod", "staticmethod",
             "contextmanager"}

Definition = Tuple[str, str, int, int]   # qualname, name, first, last


def _defines(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Name):
        return decorator.id in _DEFINING
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in _DEFINING
    return False


def definitions(tree: ast.Module) -> Iterator[Definition]:
    """Public module-level functions, and public methods and properties
    of every class, with their line span."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")
                  and all(_defines(d) for d in node.decorator_list)):
                yield (prefix + node.name, node.name, node.lineno,
                       node.end_lineno)

    yield from walk(tree.body, "")


def reads(tree: ast.Module) -> Iterator[Tuple[str, int, bool]]:
    """``(name, line, bare)`` of every read in ``tree``; ``bare`` marks
    a plain name load, which cannot reach a method or property."""
    exported: Set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported.update(id(c) for c in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, True
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr, node.lineno, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            yield node.value, node.lineno, False


def unreached(root: Path) -> List[str]:
    """``path:qualname`` of each public definition under
    ``root/src/repro`` whose name nothing outside ``tests/`` reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "repro").rglob("*.py"))}
    read_at: Dict[str, List[Tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, bare in reads(tree):
            read_at.setdefault(name, []).append((path, line, bare))
    outside: Dict[str, bool] = {}   # name -> read only as a bare name
    for folder in ("benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, _line, bare in reads(tree):
                outside[name] = outside.get(name, True) and bare
    workflows = " ".join(path.read_text(encoding="utf-8")
                         for path in sorted((root / ".github").rglob("*"))
                         if path.is_file())
    found = []
    for path, tree in trees.items():
        for qualname, name, first, last in definitions(tree):
            method = "." in qualname
            if (outside.get(name) is False
                    or (name in outside and not method)
                    or re.search(rf"\b{name}\b", workflows)):
                continue
            if any((where != path or not first <= line <= last)
                   and not (bare and method)
                   for where, line, bare in read_at.get(name, ())):
                continue
            found.append(f"{path.relative_to(root / 'src').as_posix()}"
                         f":{qualname}")
    return found


def test_every_public_definition_is_reached_outside_tests():
    found = [entry for entry in unreached(REPO_ROOT)
             if entry not in ALLOWLIST]
    assert found == [], (
        "read only by tests (move into tests/, delete, or allowlist "
        "with a reason): " + ", ".join(found))


def test_allowlist_names_only_unreached_definitions():
    """An entry whose definition is gone, or now reached, goes too."""
    assert sorted(set(ALLOWLIST) - set(unreached(REPO_ROOT))) == []


def test_a_planted_test_only_method_fails(tmp_path):
    for folder in ("src", "benchmarks", "examples", ".github"):
        shutil.copytree(REPO_ROOT / folder, tmp_path / folder,
                        ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "repro" / "sim" / "engine.py"
    source = target.read_text(encoding="utf-8")
    anchor = "    def pending(self) -> int:\n"
    assert anchor in source
    target.write_text(source.replace(
        anchor,
        "    def planted_for_tests(self) -> int:\n"
        "        return len(self._heap)\n\n" + anchor), encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_planted.py").write_text(
        "def test_planted(sim):\n"
        "    assert sim.planted_for_tests() == 0\n", encoding="utf-8")
    assert "repro/sim/engine.py:Simulator.planted_for_tests" in \
        unreached(tmp_path)
    assert set(unreached(tmp_path)) - set(unreached(REPO_ROOT)) == {
        "repro/sim/engine.py:Simulator.planted_for_tests"}


def test_a_method_read_only_as_a_bare_name_fails(tmp_path):
    """A local variable elsewhere in ``src/`` named like a test-only
    method does not reach it: only an attribute load or a string can."""
    for folder in ("src", "benchmarks", "examples", ".github"):
        shutil.copytree(REPO_ROOT / folder, tmp_path / folder,
                        ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "repro" / "sim" / "engine.py"
    source = target.read_text(encoding="utf-8")
    anchor = "    def pending(self) -> int:\n"
    target.write_text(source.replace(
        anchor,
        "    def planted_for_tests(self) -> int:\n"
        "        return len(self._heap)\n\n" + anchor), encoding="utf-8")
    reader = tmp_path / "src" / "repro" / "sim" / "node.py"
    reader.write_text(reader.read_text(encoding="utf-8")
                      + "\n\ndef _planted_reader(planted_for_tests):\n"
                      "    return planted_for_tests\n", encoding="utf-8")
    assert set(unreached(tmp_path)) - set(unreached(REPO_ROOT)) == {
        "repro/sim/engine.py:Simulator.planted_for_tests"}
