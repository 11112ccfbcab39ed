"""The ``[tool.<name>]`` tables of ``pyproject.toml``, on every Python.

``repro lint`` keeps its settings in the repo's ``pyproject.toml``
under ``[tool.repro-lint]``.  :func:`load_tool_table` reads that table
with ``tomllib`` on Python >= 3.11 and with :func:`parse_tool_table` on
3.10.  That fallback reads only the syntax the repo's own tables use —
string, boolean, integer and float values, one-level arrays of them
(which may span lines), quoted keys and ``#`` comments — and skips
every other table unread, so foreign syntax cannot break it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

try:  # Python >= 3.11
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - exercised only on 3.10
    _toml = None  # type: ignore[assignment]


def load_tool_table(root: Path, name: str) -> Dict[str, Any]:
    """``[tool.<name>]`` of ``root/pyproject.toml``; ``{}`` if absent."""
    path = Path(root) / "pyproject.toml"
    if not path.is_file():
        return {}
    text = path.read_text(encoding="utf-8")
    if _toml is None:
        return parse_tool_table(text, name)
    table = _toml.loads(text).get("tool", {}).get(name, {})
    return table if isinstance(table, dict) else {}


def parse_tool_table(text: str, name: str) -> Dict[str, Any]:
    """The 3.10 fallback: ``[tool.<name>]`` and its sub-tables only."""
    prefix = f"tool.{name}"
    result: Dict[str, Any] = {}
    current: Optional[Dict[str, Any]] = None
    pending = ""   # ``key = [...`` of an array still open across lines
    for raw_line in text.splitlines():
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if pending:
            line = f"{pending} {line}"
            pending = ""
        elif line.startswith("["):
            # ``[[...]]`` (an array of tables) never names one of ours.
            header = line[1:-1].strip().strip("\"'")
            current = None
            if header == prefix or header.startswith(prefix + "."):
                current = result
                for part in header[len(prefix):].split(".")[1:]:
                    current = current.setdefault(part.strip().strip("\"'"),
                                                 {})
            continue
        if current is None or "=" not in line:
            continue
        key, _, value = line.partition("=")
        value = value.strip()
        if value.startswith("[") and not _array_closed(value):
            pending = line
            continue
        current[key.strip().strip("\"'")] = _value(value)
    return result


def _unquoted(text: str) -> Iterator[Tuple[int, str]]:
    """``(index, char)`` of every character outside a string literal."""
    quote: Optional[str] = None
    for index, char in enumerate(text):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            quote = char
        else:
            yield index, char


def _strip_comment(line: str) -> str:
    for index, char in _unquoted(line):
        if char == "#":
            return line[:index]
    return line


def _array_closed(value: str) -> bool:
    return sum(1 if char == "[" else -1 for _, char in _unquoted(value)
               if char in "[]") == 0


def _value(raw: str) -> Any:
    raw = raw.strip()
    if raw.startswith("["):
        inner = raw[1:raw.rindex("]")]
        items, start = [], 0
        for index, char in _unquoted(inner):
            if char == ",":
                items.append(inner[start:index])
                start = index + 1
        items.append(inner[start:])
        return [_value(item) for item in items if item.strip()]
    if raw[:1] in ("'", '"'):
        return raw[1:-1]
    if raw in ("true", "false"):
        return raw == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw
