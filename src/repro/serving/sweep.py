"""Serving grids: users x catalog x cache budget, serial or parallel.

Rides the PR 2 sweep machinery: grid cells run through
:func:`repro.experiments.sweep.parallel_map` (order-preserving, so the
serial and parallel runs of the same grid produce bit-identical
reports) and results land in ``BENCH_serving.json`` via
:func:`repro.experiments.sweep.append_bench_history`, which the
regression sentinel (``repro bench-diff``) folds into a trajectory.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional

from ..experiments.sweep import append_bench_history, parallel_map
from .engine import ServingSpec, deterministic_report, run_serving

SERVING_BENCH_SCHEMA = "bench_serving/v1"


def _run_cell(spec: ServingSpec) -> Dict[str, Any]:
    """Module-level job so the process pool can pickle it."""
    return deterministic_report(run_serving(spec))


def run_serving_grid(specs: Iterable[ServingSpec],
                     workers: Optional[int] = None) -> List[Dict[str, Any]]:
    """Run every spec (optionally across a process pool), in order."""
    return parallel_map(_run_cell, list(specs), workers=workers)


def grid_specs(base: ServingSpec,
               users: Iterable[int],
               contents: Iterable[int],
               cache_bytes: Iterable[int]) -> List[ServingSpec]:
    """The full cross product, in deterministic (sorted-axis) order."""
    return [replace(base, users=u, n_contents=n, cache_bytes=b)
            for u in sorted(set(users))
            for n in sorted(set(contents))
            for b in sorted(set(cache_bytes))]


def serving_bench_payload(reports: List[Dict[str, Any]],
                          name: str = "serving") -> Dict[str, Any]:
    """The ``bench_serving/v1`` document for a finished grid.

    ``summary`` carries the scalars the regression sentinel watches:
    the mean steady-state hit ratio and bytes-saved ratio across cells
    (higher is better), and the worst steady p99 download time (lower
    is better).
    """
    if not reports:
        raise ValueError("no serving reports to summarise")
    hit_ratios = [r["steady"]["hit_ratio"] for r in reports]
    saved = [r["steady"]["bytes_saved_ratio"] for r in reports]
    p99s = [r["steady"]["p99_download_s"] for r in reports
            if r["steady"]["p99_download_s"] is not None]
    cells = []
    for report in reports:
        spec = report["spec"]
        cells.append({
            "users": spec["users"],
            "n_contents": spec["n_contents"],
            "cache_bytes": spec["cache_bytes"],
            "cache_shards": spec["cache_shards"],
            "seed": spec["seed"],
            "steady": report["steady"],
            "requests": report["requests"],
            "pool": report["pool"],
            "sim_time": report["sim_time"],
        })
    return {
        "schema": SERVING_BENCH_SCHEMA,
        "name": name,
        "cells": cells,
        "summary": {
            "cells": len(reports),
            "steady_hit_ratio": sum(hit_ratios) / len(hit_ratios),
            "steady_bytes_saved_ratio": sum(saved) / len(saved),
            "worst_p99_download_s": max(p99s) if p99s else None,
            "total_requests": sum(r["requests"]["total"] for r in reports),
            "completed_requests": sum(r["requests"]["completed"]
                                      for r in reports),
        },
    }


def write_serving_bench(reports: List[Dict[str, Any]], path: str,
                        name: str = "serving") -> Dict[str, Any]:
    """Write (or extend) ``BENCH_serving.json``; returns the document."""
    return append_bench_history(serving_bench_payload(reports, name), path)


def validate_bench_serving(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` is valid ``bench_serving/v1``.

    Structural validation for tests and the CI serving-smoke step.
    """
    if not isinstance(doc, dict):
        raise ValueError("bench_serving document must be a dict")
    if doc.get("schema") != SERVING_BENCH_SCHEMA:
        raise ValueError(f"bad schema: {doc.get('schema')!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("cells must be a non-empty list")
    for cell in cells:
        steady = cell.get("steady")
        if not isinstance(steady, dict):
            raise ValueError("cell missing steady section")
        for key in ("hit_ratio", "bytes_saved_ratio", "samples"):
            if key not in steady:
                raise ValueError(f"steady section missing {key!r}")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        raise ValueError("missing summary")
    for key in ("steady_hit_ratio", "steady_bytes_saved_ratio", "cells"):
        if key not in summary:
            raise ValueError(f"summary missing {key!r}")
    if not isinstance(doc.get("history", []), list):
        raise ValueError("history must be a list")
