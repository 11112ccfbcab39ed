"""Declarative lint configuration (``[tool.repro-lint]`` in pyproject).

Everything the rules enforce — the layer order, the call sites
reserved to one module, the determinism escape hatches, the registered
hot functions — is data, not code, so architecture changes are
one-line config edits reviewed alongside the code that makes them.
:func:`repro.metrics.pyproject.load_tool_table` reads the table on
every supported Python.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..metrics.pyproject import load_tool_table


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


@dataclass(frozen=True)
class CallSiteRule:
    """One ``[tool.repro-lint.call-sites.<name>]`` entry: a call that
    names one of ``calls`` (after import aliases) and passes every
    ``keywords`` pair is allowed only in the modules under ``allow``."""

    name: str
    calls: Tuple[str, ...]
    #: keyword -> ``ast.dump`` of the literal it must be passed.
    keywords: Tuple[Tuple[str, str], ...]
    allow: Tuple[str, ...]
    why: str

    @classmethod
    def parse(cls, name: str, entry: Dict[str, Any]) -> "CallSiteRule":
        keywords = []
        for pair in entry.get("keywords", []):
            keyword, _, literal = pair.partition("=")
            keywords.append((keyword.strip(), ast.dump(
                ast.parse(literal.strip(), mode="eval").body)))
        rule = cls(name, tuple(entry.get("calls", [])), tuple(keywords),
                   tuple(entry.get("allow", [])), str(entry.get("why", "")))
        if not (rule.calls or rule.keywords):
            raise ValueError(f"[tool.repro-lint.call-sites.{name}] names "
                             "neither calls nor keywords")
        return rule


@dataclass
class LintConfig:
    """Parsed ``[tool.repro-lint]`` settings."""

    root: Path = field(default_factory=Path.cwd)
    roots: List[str] = field(default_factory=lambda: ["src", "benchmarks"])
    package: str = "repro"
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
    call_sites: List[CallSiteRule] = field(default_factory=list)

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
    table = load_tool_table(root, "repro-lint")

    def strings(value: Any) -> Optional[List[str]]:
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return list(value)
        return None

    if strings(table.get("roots")) is not None:
        config.roots = strings(table["roots"])
    if isinstance(table.get("package"), str):
        config.package = table["package"]

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

    call_sites = table.get("call-sites", {})
    if isinstance(call_sites, dict):
        config.call_sites = [CallSiteRule.parse(name, entry)
                             for name, entry in sorted(call_sites.items())
                             if isinstance(entry, dict)]

    return config
