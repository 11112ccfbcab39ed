"""Declarative lint configuration (``[tool.repro-lint]`` in pyproject).

Everything the rules enforce — the layer order, the determinism
escape hatches, the registered hot functions — is data, not code, so
architecture changes are one-line config edits reviewed alongside the
code that makes them.

``tomllib`` ships only with Python >= 3.11; on 3.10 a minimal fallback
parser reads just the ``[tool.repro-lint*]`` tables (whose syntax this
repo controls: strings, booleans, and string arrays).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on 3.10
    _toml = None


#: Layer ranks, bottom to top.  A module may import repro modules whose
#: layer rank is <= its own.  ``oracles`` is the dependency-free slice
#: of the verify package that the experiment runner arms online.
DEFAULT_LAYER_ORDER = [
    "core", "sim", "net", "gateway", "app", "workload",
    "metrics", "analysis", "oracles", "experiments", "verify", "cli",
]

#: Dotted-module overrides of the second-path-segment layer default
#: (longest prefix wins).
DEFAULT_LAYER_ASSIGN = {
    "repro": "cli",                      # the root package re-exports
    "repro.__main__": "cli",
    "repro.cli": "cli",
    "repro.verify.oracles": "oracles",
}

#: Modules allowed to touch process-global randomness / wall clocks:
#: the named-stream registry itself, and the CLI's user-facing edges.
DEFAULT_DETERMINISM_ALLOW = ["repro.sim.rng", "repro.cli"]

#: Wall-clock and OS-entropy calls that silently break replay
#: (``perf_counter`` is deliberately absent: it feeds profiling output,
#: never results).
DEFAULT_WALLCLOCK = [
    "time.time", "time.time_ns", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.date.today", "os.urandom",
    "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes", "secrets.token_hex",
]

#: Functions on the per-packet/per-byte path, held to the strict
#: telemetry-None-check and no-allocation discipline the per-packet
#: call budgets depend on.
DEFAULT_HOT_FUNCTIONS = [
    "repro.core.encoder.ByteCachingEncoder.encode",
    "repro.core.encoder.ByteCachingEncoder._find_regions",
    "repro.core.decoder.ByteCachingDecoder.decode",
    "repro.core.decoder.ByteCachingDecoder._accept",
    "repro.core.cache.ByteCache.insert_packet",
    "repro.core.cache.ByteCache.lookup",
    "repro.core.region.expand_bounds",
    "repro.sim.engine.Simulator.run",
]

#: Attribute names holding optional observer hooks (telemetry,
#: profilers, verifiers, span recorders).  On the hot path these must
#: be hoisted into a local and guarded by a single ``is not None``
#: check.
DEFAULT_TELEMETRY_ATTRS = ["profiler", "verifier", "telemetry", "recorder",
                           "spans"]

#: Process-boundary submission functions: their first argument is a
#: callable shipped to a worker process and must pickle.  ``.submit``/
#: ``.map`` on a ``concurrent.futures`` executor are detected
#: structurally on top of this list.
DEFAULT_PURITY_SUBMIT = ["repro.experiments.sweep.parallel_map"]


@dataclass
class LintConfig:
    """Parsed ``[tool.repro-lint]`` settings."""

    root: Path = field(default_factory=Path.cwd)
    roots: List[str] = field(default_factory=lambda: ["src", "benchmarks"])
    package: str = "repro"
    baseline: str = "lint-baseline.json"
    layer_order: List[str] = field(
        default_factory=lambda: list(DEFAULT_LAYER_ORDER))
    layer_assign: Dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_LAYER_ASSIGN))
    determinism_allow: List[str] = field(
        default_factory=lambda: list(DEFAULT_DETERMINISM_ALLOW))
    wallclock: List[str] = field(
        default_factory=lambda: list(DEFAULT_WALLCLOCK))
    hot_functions: List[str] = field(
        default_factory=lambda: list(DEFAULT_HOT_FUNCTIONS))
    telemetry_attrs: List[str] = field(
        default_factory=lambda: list(DEFAULT_TELEMETRY_ATTRS))
    purity_submit: List[str] = field(
        default_factory=lambda: list(DEFAULT_PURITY_SUBMIT))

    def layer_rank(self, module: str) -> Optional[int]:
        """Rank of ``module`` in the layer order, or None if unknown."""
        layer = self.layer_of(module)
        if layer is None:
            return None
        try:
            return self.layer_order.index(layer)
        except ValueError:
            return None

    def layer_of(self, module: str) -> Optional[str]:
        """Layer name for a dotted module: most-specific rule wins.

        Candidate rules are the explicit ``layers.assign`` prefixes and
        the implicit second-path-segment default (which counts as a
        two-segment prefix, so the bare ``package = "cli"`` root entry
        covers only the package ``__init__`` itself, not the tree
        underneath it).  Explicit assignments win ties.
        """
        candidates: List[Tuple[int, int, str]] = []
        for prefix, layer in self.layer_assign.items():
            if module == prefix or module.startswith(prefix + "."):
                candidates.append((len(prefix.split(".")), 1, layer))
        parts = module.split(".")
        if len(parts) >= 2 and parts[0] == self.package:
            candidates.append((2, 0, parts[1]))
        if not candidates:
            return None
        return max(candidates, key=lambda c: (c[0], c[1]))[2]


def load_config(root: Path) -> LintConfig:
    """Read ``[tool.repro-lint]`` from ``root/pyproject.toml``.

    Missing file or missing table both yield the defaults, so the
    engine is usable on a bare tree.
    """
    config = LintConfig(root=root)
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    text = pyproject.read_text(encoding="utf-8")
    if _toml is not None:
        data = _toml.loads(text)
    else:
        data = _parse_repro_lint_subset(text)
    table = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        return config

    def strings(value: Any) -> Optional[List[str]]:
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return list(value)
        return None

    if strings(table.get("roots")) is not None:
        config.roots = strings(table["roots"])
    if isinstance(table.get("package"), str):
        config.package = table["package"]
    if isinstance(table.get("baseline"), str):
        config.baseline = table["baseline"]

    layers = table.get("layers", {})
    if isinstance(layers, dict):
        if strings(layers.get("order")) is not None:
            config.layer_order = strings(layers["order"])
        assign = layers.get("assign", {})
        if isinstance(assign, dict):
            merged = dict(DEFAULT_LAYER_ASSIGN)
            merged.update({k: v for k, v in assign.items()
                           if isinstance(k, str) and isinstance(v, str)})
            config.layer_assign = merged

    determinism = table.get("determinism", {})
    if isinstance(determinism, dict):
        if strings(determinism.get("allow-modules")) is not None:
            config.determinism_allow = strings(determinism["allow-modules"])
        if strings(determinism.get("wallclock")) is not None:
            config.wallclock = strings(determinism["wallclock"])

    hotpath = table.get("hotpath", {})
    if isinstance(hotpath, dict):
        if strings(hotpath.get("functions")) is not None:
            config.hot_functions = strings(hotpath["functions"])
        if strings(hotpath.get("telemetry-attrs")) is not None:
            config.telemetry_attrs = strings(hotpath["telemetry-attrs"])

    purity = table.get("purity", {})
    if isinstance(purity, dict):
        if strings(purity.get("submit-functions")) is not None:
            config.purity_submit = strings(purity["submit-functions"])

    return config


# -- minimal TOML subset (Python 3.10 fallback) ----------------------------

_TABLE_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")


def _parse_repro_lint_subset(text: str) -> Dict[str, Any]:
    """Parse only the ``[tool.repro-lint*]`` tables out of a TOML file.

    Handles the subset those tables use — string/boolean values and
    (possibly multi-line) arrays of strings — and ignores every other
    table entirely, so unrelated pyproject syntax cannot break it.
    """
    result: Dict[str, Any] = {}
    current: Optional[Dict[str, Any]] = None
    pending_key: Optional[str] = None
    pending_value = ""

    def commit(key: str, raw: str) -> None:
        if current is not None:
            current[key] = _parse_scalar_or_array(raw)

    for raw_line in text.splitlines():
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if pending_key is not None:
            pending_value += " " + line
            if _array_closed(pending_value):
                commit(pending_key, pending_value)
                pending_key, pending_value = None, ""
            continue
        match = _TABLE_RE.match(line)
        if match:
            name = match.group("name").strip().strip("\"'")
            if name == "tool.repro-lint" or name.startswith("tool.repro-lint."):
                current = result
                for part in _split_table_name(name):
                    current = current.setdefault(part, {})
            else:
                current = None
            continue
        if current is None or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().strip("\"'")
        value = value.strip()
        if value.startswith("[") and not _array_closed(value):
            pending_key, pending_value = key, value
        else:
            commit(key, value)
    return result


def _split_table_name(name: str) -> List[str]:
    """Split ``tool.repro-lint.layers`` -> [tool, repro-lint, layers]."""
    return [part.strip().strip("\"'") for part in name.split(".")]


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment that sits outside any string literal."""
    quote: Optional[str] = None
    for index, char in enumerate(line):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            quote = char
        elif char == "#":
            return line[:index]
    return line


def _array_closed(value: str) -> bool:
    """True once an array literal has its closing bracket (outside
    strings)."""
    depth = 0
    quote: Optional[str] = None
    for char in value:
        if quote is not None:
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            quote = char
        elif char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
            if depth == 0:
                return True
    return False


def _parse_scalar_or_array(raw: str) -> Any:
    raw = raw.strip()
    if raw.startswith("["):
        return _parse_string_array(raw)
    return _parse_scalar(raw)


def _parse_scalar(raw: str) -> Any:
    raw = raw.strip()
    if raw in ("true", "false"):
        return raw == "true"
    if (raw.startswith('"') and raw.endswith('"')) or (
            raw.startswith("'") and raw.endswith("'")):
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        return raw


def _parse_string_array(raw: str) -> List[Any]:
    inner = raw.strip()
    if inner.startswith("["):
        inner = inner[1:]
    if inner.endswith("]"):
        inner = inner[:-1]
    items: List[Any] = []
    token = ""
    quote: Optional[str] = None
    for char in inner:
        if quote is not None:
            token += char
            if char == quote:
                quote = None
            continue
        if char in ("'", '"'):
            quote = char
            token += char
        elif char == ",":
            if token.strip():
                items.append(_parse_scalar(token.strip()))
            token = ""
        else:
            token += char
    if token.strip():
        items.append(_parse_scalar(token.strip()))
    return items
