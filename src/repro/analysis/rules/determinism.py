"""Determinism rules: all randomness flows through named RNG streams.

Replayability is a load-bearing property of this repo: ``repro fuzz
--replay``, the shrinker, the serial-vs-parallel sweep differential
and the paired no-DRE baselines are only sound because every stochastic
draw comes from a named :class:`repro.sim.rng.RngRegistry` stream and
nothing reads the wall clock into results.  One stray module-level
``random.random()`` breaks all of them silently — it shifts global
state depending on call order — so the ban is static.

Allowed everywhere: seeded instances (``random.Random(seed)``,
``numpy.random.default_rng(seed)``) and monotonic profiling clocks
(``perf_counter`` feeds timing reports, never simulation results).
Exempt modules (``allow-modules``): the stream registry itself and the
CLI's user-facing edges.
"""

from __future__ import annotations

import ast
from typing import List

from ..astutil import ParsedFile
from ..config import LintConfig
from ..findings import Finding
from ..project import ProjectModel
from ..registry import rule

#: ``random``-module callables that are *not* global-state draws.
_RANDOM_SAFE = {"random.Random", "random.SystemRandom", "random.getstate",
                "random.setstate"}

#: Legacy ``numpy.random`` names that are safe: explicit generator and
#: seeding machinery rather than draws from the hidden global state.
_NUMPY_SAFE = {"numpy.random.default_rng", "numpy.random.Generator",
               "numpy.random.SeedSequence", "numpy.random.RandomState",
               "numpy.random.PCG64", "numpy.random.Philox"}


def _exempt(parsed: ParsedFile, config: LintConfig) -> bool:
    module = parsed.module
    if module is None:
        return False
    return any(module == allowed or module.startswith(allowed + ".")
               for allowed in config.determinism_allow)


@rule("determinism-global-random")
def check_global_random(parsed: ParsedFile, config: LintConfig,
                        project: ProjectModel) -> List[Finding]:
    """No module-level ``random.*`` draws (shared hidden state)."""
    if _exempt(parsed, config):
        return []
    findings: List[Finding] = []
    scopes = project.scopes(parsed)
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = parsed.resolve_call(node.func)
        if dotted is None:
            continue
        if dotted.startswith("random.") and dotted not in _RANDOM_SAFE \
                and dotted.count(".") == 1:
            findings.append(Finding(
                rule="determinism-global-random", path=parsed.relpath,
                line=node.lineno, col=node.col_offset,
                scope=scopes.get(id(node), ""),
                message=f"{dotted}() draws from the process-global RNG; "
                        "draw from a named RngRegistry stream "
                        "(repro.sim.rng) so runs stay replayable",
                fixable=True,
                fix="thread an rng / RngRegistry stream into this code "
                    "and call its bound methods"))
    return findings


@rule("determinism-wallclock")
def check_wallclock(parsed: ParsedFile, config: LintConfig,
                    project: ProjectModel) -> List[Finding]:
    """No wall-clock or OS-entropy reads (``time.time``, ``uuid4``, ...)."""
    if _exempt(parsed, config):
        return []
    banned = set(config.wallclock)
    findings: List[Finding] = []
    scopes = project.scopes(parsed)
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = parsed.resolve_call(node.func)
        if dotted is None:
            continue
        # ``from datetime import datetime; datetime.now()`` resolves to
        # datetime.datetime.now; ``datetime.date.today()`` similarly.
        if dotted in banned:
            findings.append(Finding(
                rule="determinism-wallclock", path=parsed.relpath,
                line=node.lineno, col=node.col_offset,
                scope=scopes.get(id(node), ""),
                message=f"{dotted}() reads the wall clock or OS entropy; "
                        "simulated time comes from Simulator.now and "
                        "profiling from perf_counter",
                fixable=True,
                fix="use sim.now for simulated time, perf_counter for "
                    "profiling, or pass the timestamp in from the CLI "
                    "edge"))
    return findings


@rule("determinism-numpy-global")
def check_numpy_global(parsed: ParsedFile, config: LintConfig,
                       project: ProjectModel) -> List[Finding]:
    """No unseeded ``numpy.random`` global-state draws."""
    if _exempt(parsed, config):
        return []
    findings: List[Finding] = []
    scopes = project.scopes(parsed)
    for node in ast.walk(parsed.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = parsed.resolve_call(node.func)
        if dotted is None or not dotted.startswith("numpy.random."):
            continue
        if dotted in _NUMPY_SAFE:
            continue
        findings.append(Finding(
            rule="determinism-numpy-global", path=parsed.relpath,
            line=node.lineno, col=node.col_offset,
            scope=scopes.get(id(node), ""),
            message=f"{dotted}() uses numpy's hidden global bit "
                    "generator; use RngRegistry.numpy_stream(name) "
                    "(numpy.random.default_rng under a derived seed)",
            fixable=True,
            fix="request a named generator via "
                "RngRegistry.numpy_stream(...)"))
    return findings
