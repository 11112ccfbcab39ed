"""DESIGN.md describes code that exists, and every pointer into it lands.

A section reference that names no heading, or a backticked code name
that occurs nowhere in the tree, sends a reader to code that is gone.
The one place a deleted name may stay is DESIGN's "Deleted forks"
paragraph, which records what was removed and why.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DESIGN = REPO_ROOT / "DESIGN.md"
DESIGN_MAX_BYTES = 51_200

#: "DESIGN.md §N" or "DESIGN §N", backticked or not, possibly broken
#: across a line (and a comment marker), with any "and §M" / ", §M" after.
_SECTION_REF = re.compile(
    r"DESIGN(?:\.md)?`?\s*(?:#:?\s*)?(§\d+(?:\s*(?:,|and|/)\s*§\d+)*)")
_SECTION_NUMBER = re.compile(r"§(\d+)")
_BACKTICKED = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?")
_CAMEL = re.compile(r"[a-z][A-Z]|[A-Z]{2}[a-z]")
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_DELETED_FORKS = re.compile(r"^\*\*Deleted forks.*?(?:\n\n|\Z)", re.S | re.M)


def _design_sections() -> set:
    text = DESIGN.read_text(encoding="utf-8")
    return {int(n) for n in re.findall(r"^## (\d+)\. ", text, re.M)}


def _files(*names: str):
    for name in names:
        path = REPO_ROOT / name
        if path.is_file():
            yield path
            continue
        for found in sorted(path.rglob("*")):
            if found.is_file() and "__pycache__" not in found.parts \
                    and found.suffix in {".py", ".md", ".txt", ".yml"}:
                yield found


def _section_refs(path: Path):
    text = path.read_text(encoding="utf-8")
    for match in _SECTION_REF.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        for number in _SECTION_NUMBER.findall(match.group(1)):
            yield line, int(number)


def _code_shaped(token: str) -> bool:
    return ("_" in token or "." in token or token.endswith("()")
            or _CAMEL.search(token) is not None)


def test_design_section_references_name_existing_headings():
    sections = _design_sections()
    dangling = [
        f"{path.relative_to(REPO_ROOT)}:{line}: §{number}"
        for path in _files("src", "tests", "benchmarks", "examples",
                           "README.md", "EXPERIMENTS.md")
        for line, number in _section_refs(path)
        if number not in sections]
    assert not dangling, "DESIGN has no such section:\n" + "\n".join(dangling)


def test_design_cross_references_name_its_own_headings():
    """Inside DESIGN a bare §N is one of its own sections (the paper's
    sections are roman: §III-B)."""
    sections = _design_sections()
    text = DESIGN.read_text(encoding="utf-8")
    missing = sorted({int(n) for n in _SECTION_NUMBER.findall(text)}
                     - sections)
    assert not missing, f"DESIGN cites missing sections {missing}"


def test_design_names_only_code_that_exists():
    corpus = []
    for path in _files("src", "tests", "benchmarks", "pyproject.toml",
                       ".github"):
        corpus.append(str(path.relative_to(REPO_ROOT)))
        if path != Path(__file__).resolve():  # its own text names nothing
            corpus.append(path.read_text(encoding="utf-8",
                                         errors="replace"))
    words = set(re.findall(r"\w+", "\n".join(corpus)))
    text = DESIGN.read_text(encoding="utf-8")
    text = _DELETED_FORKS.sub("", _FENCE.sub("", text))
    unknown = sorted({
        token
        for span in _BACKTICKED.findall(text)
        for token in _NAME.findall(span)
        if _code_shaped(token)
        and not all(part in words
                    for part in token.removesuffix("()").split("."))})
    assert not unknown, ("DESIGN names code that is nowhere in the tree "
                         "(a deleted name belongs in 'Deleted forks'): "
                         + ", ".join(unknown))


def test_design_module_map_lists_existing_files():
    text = DESIGN.read_text(encoding="utf-8")
    fence = _FENCE.search(text)
    assert fence is not None, "DESIGN §3 has no module map"
    present = {p.name for p in (REPO_ROOT / "src" / "repro").rglob("*.py")}
    missing = sorted(set(re.findall(r"\b\w+\.py\b", fence.group()))
                     - present)
    assert not missing, f"the module map lists missing files {missing}"


def test_design_stays_within_its_size_budget():
    size = DESIGN.stat().st_size
    assert size <= DESIGN_MAX_BYTES, (
        f"DESIGN.md is {size:,} B, over {DESIGN_MAX_BYTES:,}: state each "
        "fact once, for code that exists, and move history to CHANGES")
