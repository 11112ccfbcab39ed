"""Static architecture analysis (``repro lint``).

An AST-based lint engine that enforces, before every commit, the
architectural assumptions the rest of the repo only checks at runtime:

* **layering** — the import DAG (core below sim below net below the
  gateways; metrics imported only from above) stays a DAG, and calls
  reserved to one module (the run sequence, observer attachment, the
  no-DRE twin) are made only there;
* **determinism** — all randomness flows through named
  :class:`~repro.sim.rng.RngRegistry` streams and nothing reads wall
  clocks into results, so fuzz replay and paired sweeps stay
  bit-identical;
* **hot-path discipline** — the registered encoder/decoder/simulator
  hot functions keep the single-None-check telemetry pattern that
  the e2e call budgets hold them to;
* **robustness hygiene** — no bare excepts, mutable defaults,
  silently swallowed :class:`InvariantViolation`, or tracked bytecode;
* **process-boundary purity** — what crosses into a sweep worker
  must pickle and workers must not mutate module globals; the one
  family that walks the shared
  :class:`~repro.analysis.project.ProjectModel` (symbol table +
  conservative call graph).

Everything is declarative config under ``[tool.repro-lint]`` in
``pyproject.toml``; the one way to accept a finding is a line-level
``# lint: disable=RULE(reason)`` pragma whose reason is mandatory.
"""

from .config import LintConfig, load_config
from .engine import collect_files, format_text, run_lint
from .findings import (FAMILIES, LINT_SCHEMA, Finding, LintReport,
                       validate_lint_report)
from .project import ProjectModel
from .registry import RULES, Rule, rule, select_rules

__all__ = [
    "FAMILIES", "Finding", "LINT_SCHEMA", "LintConfig", "LintReport",
    "ProjectModel", "RULES", "Rule", "collect_files", "format_text",
    "load_config", "rule", "run_lint", "select_rules",
    "validate_lint_report",
]
