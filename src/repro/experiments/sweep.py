"""Declarative parameter sweeps over :class:`ExperimentConfig`.

The paper's figures are all grids: policy x corpus x loss-rate x seed,
each cell one simulated transfer, many cells sharing one no-DRE
baseline.  This module turns that shape into data:

* :class:`SweepSpec` — a base config, a parameter grid over config
  fields, replicate seeds, and (optionally) paired no-DRE baselines.
* :func:`run_sweep` — executes the spec's cells serially or on a
  :class:`~concurrent.futures.ProcessPoolExecutor`, deduplicating
  identical configs (hash-keyed) and memoising paired baselines.
* :func:`write_bench_json` — emits the ``BENCH_sweep.json``
  perf-trajectory file (schema ``bench_sweep/v1``).

Determinism: the simulation is fully seeded, so a cell's result is a
pure function of its config.  Cells are enumerated in grid-product
order and aggregated in that order regardless of worker completion
order — a parallel run is bit-identical to a serial one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..metrics.collectors import RatioPoint, TransferResult
from .config import ExperimentConfig
from .runner import run_transfer

BENCH_SCHEMA = "bench_sweep/v1"
TELEMETRY_BENCH_SCHEMA = "bench_telemetry/v1"


# ---------------------------------------------------------------------------
# config identity
# ---------------------------------------------------------------------------

def config_hash(config: ExperimentConfig) -> str:
    """Stable content hash of a config (the identity sweeps dedupe on).

    Canonical JSON over the dataclass fields: two configs hash equal
    iff every field is equal, independent of construction order or
    process.
    """
    payload = json.dumps(asdict(config), sort_keys=True,
                         separators=(",", ":"), default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _freeze(value: Any) -> Any:
    """Hashable, order-independent form of a grid parameter value."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


# ---------------------------------------------------------------------------
# spec and cells
# ---------------------------------------------------------------------------

@dataclass
class SweepCell:
    """One coordinate of the grid: a concrete config plus its identity."""

    index: int
    params: Dict[str, Any]          # flattened field assignment for this cell
    seed: int
    config: ExperimentConfig

    @property
    def key(self) -> tuple:
        """Hashable (params, seed) identity used for cell lookup."""
        return (tuple(sorted((name, _freeze(value))
                             for name, value in self.params.items())),
                self.seed)


@dataclass
class SweepSpec:
    """A declarative parameter sweep.

    ``grid`` maps config field names to the values to sweep.  A key may
    name several comma-joined fields (``"policy,policy_kwargs"``) whose
    values are tuples assigned together — that expresses paired axes
    like (policy, its kwargs) without taking their cross product.

    ``seeds`` replicates every grid point; each replicate's config gets
    ``seed=<that seed>`` (deterministic per-cell seeding).  ``None``
    keeps the base config's seed, yielding one replicate per point.

    ``paired_baseline`` runs the no-DRE twin
    (``policy=None, policy_kwargs={}``) of every DRE cell; twins that
    hash equal across cells are executed once and shared.
    """

    base: ExperimentConfig = field(default_factory=ExperimentConfig)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Optional[Sequence[int]] = None
    paired_baseline: bool = False

    def cells(self) -> Iterator[SweepCell]:
        """Enumerate cells in grid-product order (the aggregation order)."""
        keys = list(self.grid)
        seeds: Sequence[Optional[int]] = (tuple(self.seeds)
                                          if self.seeds is not None
                                          else (None,))
        index = 0
        for combo in itertools.product(*(self.grid[key] for key in keys)):
            assignment: Dict[str, Any] = {}
            for key, value in zip(keys, combo):
                fields = [name.strip() for name in key.split(",")]
                if len(fields) == 1:
                    assignment[fields[0]] = value
                else:
                    if len(value) != len(fields):
                        raise ValueError(
                            f"grid key {key!r} names {len(fields)} fields "
                            f"but got a value of length {len(value)}")
                    assignment.update(zip(fields, value))
            for seed in seeds:
                updates = dict(assignment)
                if seed is not None:
                    updates["seed"] = seed
                config = self.base.with_updates(**updates)
                yield SweepCell(index=index, params=dict(assignment),
                                seed=config.seed, config=config)
                index += 1

    def size(self) -> int:
        lengths = [len(values) for values in self.grid.values()]
        cells = 1
        for length in lengths:
            cells *= length
        return cells * (len(self.seeds) if self.seeds is not None else 1)


@dataclass
class CellResult:
    """One executed cell: its result and (optionally) its baseline twin."""

    index: int
    params: Dict[str, Any]
    seed: int
    config_hash: str
    result: TransferResult
    baseline: Optional[TransferResult] = None
    baseline_hash: Optional[str] = None
    elapsed: float = 0.0            # seconds simulating

    @property
    def key(self) -> tuple:
        return (tuple(sorted((name, _freeze(value))
                             for name, value in self.params.items())),
                self.seed)

    def ratio_point(self, x: float) -> RatioPoint:
        """Paired DRE/no-DRE ratios at sweep coordinate ``x``."""
        if self.baseline is None:
            raise ValueError("cell has no paired baseline "
                             "(SweepSpec.paired_baseline was False)")
        return RatioPoint.from_results(x, self.result, self.baseline)


@dataclass
class SweepResult:
    """All cells of a sweep, in spec (grid-product) order."""

    cells: List[CellResult]
    executed: int                   # unique configs simulated
    wall_clock: float

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def by_key(self) -> Dict[tuple, CellResult]:
        """Lookup table keyed by each cell's (params, seed) identity."""
        return {cell.key: cell for cell in self.cells}


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _execute_config(job: Tuple[str, ExperimentConfig]
                    ) -> Tuple[str, TransferResult, float]:
    """Worker: run one transfer.  Module-level so it pickles."""
    digest, config = job
    started = time.perf_counter()
    result = run_transfer(config)
    return digest, result, time.perf_counter() - started


def run_sweep(spec: SweepSpec, *,
              workers: Optional[int] = None) -> SweepResult:
    """Execute every cell of ``spec`` (plus paired baselines).

    ``workers``: ``None``/``0``/``1`` runs serially in-process; larger
    values fan the *unique* configs out over a process pool.  The
    result is bit-identical either way (see module docstring).
    """
    started = time.perf_counter()
    cells = list(spec.cells())

    # Unique configs to resolve: every cell, plus each DRE cell's
    # baseline twin.  Dict insertion order keeps job order (and thus
    # scheduling) deterministic.
    jobs: Dict[str, ExperimentConfig] = {}
    cell_hashes: List[str] = []
    baseline_hashes: List[Optional[str]] = []
    for cell in cells:
        digest = config_hash(cell.config)
        cell_hashes.append(digest)
        jobs.setdefault(digest, cell.config)
        if spec.paired_baseline and cell.config.dre_enabled:
            twin = cell.config.with_updates(policy=None, policy_kwargs={})
            twin_digest = config_hash(twin)
            baseline_hashes.append(twin_digest)
            jobs.setdefault(twin_digest, twin)
        else:
            baseline_hashes.append(None)

    results: Dict[str, TransferResult] = {}
    elapsed: Dict[str, float] = {}
    for digest, result, seconds in parallel_map(_execute_config,
                                                list(jobs.items()),
                                                workers=workers):
        results[digest] = result
        elapsed[digest] = seconds

    cell_results = []
    for cell, digest, twin_digest in zip(cells, cell_hashes, baseline_hashes):
        cell_results.append(CellResult(
            index=cell.index, params=cell.params, seed=cell.seed,
            config_hash=digest, result=results[digest],
            baseline=(results[twin_digest] if twin_digest is not None
                      else None),
            baseline_hash=twin_digest,
            elapsed=elapsed[digest]))
    return SweepResult(cells=cell_results, executed=len(jobs),
                       wall_clock=time.perf_counter() - started)


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any], *,
                 workers: Optional[int] = None) -> List[Any]:
    """Order-preserving map, serial or over a process pool.

    For sweep-adjacent work that is not a transfer (e.g. Table I's
    offline encoder runs).  ``fn`` must be a module-level callable so
    it pickles.
    """
    items = list(items)
    if workers is None or workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# BENCH_sweep.json emission
# ---------------------------------------------------------------------------

def _cell_metrics(result: TransferResult) -> Dict[str, Any]:
    metrics = {
        "completed": result.completed,
        "bytes_on_link": result.forward_bytes_on_link,
        "download_time": result.download_time,
        "perceived_loss_rate": result.perceived_loss_rate,
        "sim_time": result.sim_time,
    }
    if result.spans is not None:
        # Deterministic rollup only (counts + sim durations, no wall
        # times), so a cell's metrics are a pure function of its config.
        from ..metrics.spans import spans_rollup
        metrics["spans"] = spans_rollup(result.spans)
    return metrics


def bench_payload(sweep: SweepResult, name: str) -> Dict[str, Any]:
    """The ``bench_sweep/v1`` document for one sweep run."""
    cells = []
    for cell in sweep.cells:
        entry: Dict[str, Any] = {
            "params": {key: repr(value) if isinstance(value, dict) else value
                       for key, value in cell.params.items()},
            "seed": cell.seed,
            "config_hash": cell.config_hash,
            "elapsed": cell.elapsed,
            "metrics": _cell_metrics(cell.result),
        }
        if cell.baseline is not None:
            entry["baseline_hash"] = cell.baseline_hash
            entry["metrics"]["bytes_ratio"] = (
                cell.result.forward_bytes_on_link
                / max(1, cell.baseline.forward_bytes_on_link))
        cells.append(entry)
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "cells": cells,
        "summary": {
            "cells": len(sweep.cells),
            "executed": sweep.executed,
            "wall_clock": sweep.wall_clock,
        },
    }


def append_bench_history(payload: Dict[str, Any], path: str) -> Dict[str, Any]:
    """Write a ``BENCH_*.json`` record, folding the prior run into history.

    If ``path`` already holds a document with the same ``schema``, its
    ``name``/``generated_at``/``summary`` are appended to this
    document's ``history`` list — successive runs accumulate a
    performance trajectory.  Shared by the sweep, hot-path and serving
    bench writers; ``payload`` must carry ``schema`` and ``summary``
    keys and is mutated in place (history + timestamp) before being
    written.
    """
    history: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
        if (isinstance(previous, dict)
                and previous.get("schema") == payload.get("schema")):
            history = list(previous.get("history", []))
            history.append({"name": previous.get("name"),
                            "generated_at": previous.get("generated_at"),
                            **previous.get("summary", {})})
    except (OSError, ValueError):
        pass
    payload["history"] = history
    # lint: disable=determinism-wallclock(report metadata timestamp; never feeds simulation state)
    payload["generated_at"] = time.time()
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return payload


def write_bench_json(sweep: SweepResult, path: str, *,
                     name: str = "sweep") -> Dict[str, Any]:
    """Write (or extend) a ``BENCH_sweep.json`` perf-trajectory file.

    If ``path`` already holds a ``bench_sweep/v1`` document, its
    summary is appended to this document's ``history`` — successive
    runs accumulate a wall-clock trajectory.
    """
    return append_bench_history(bench_payload(sweep, name), path)


# ---------------------------------------------------------------------------
# bench_telemetry/v1 emission
# ---------------------------------------------------------------------------

def _telemetry_cell(cell: CellResult) -> Dict[str, Any]:
    return {
        "params": {key: repr(value) if isinstance(value, dict) else value
                   for key, value in cell.params.items()},
        "seed": cell.seed,
        "config_hash": cell.config_hash,
        "telemetry": cell.result.telemetry,
    }


def telemetry_payload(sweep: SweepResult, name: str) -> Dict[str, Any]:
    """The ``bench_telemetry/v1`` document for one sweep run.

    Carries the per-cell ``telemetry/v1`` exports (cells run without
    ``telemetry=True`` are skipped) so every cell's time series survive
    alongside the scalar ``bench_sweep/v1`` metrics.
    """
    cells = [_telemetry_cell(cell) for cell in sweep.cells
             if cell.result.telemetry is not None]
    return {
        "schema": TELEMETRY_BENCH_SCHEMA,
        "name": name,
        "cells": cells,
        "summary": {
            "cells": len(sweep.cells),
            "with_telemetry": len(cells),
        },
    }


def write_telemetry_export(sweep: SweepResult, path: str, *,
                           name: str = "sweep") -> Dict[str, Any]:
    """Write per-cell telemetry as ``bench_telemetry/v1``.

    A ``.jsonl`` path gets one self-describing JSON object per line
    (schema + name on each row, one row per cell) — stream-appendable
    and ``jq``-sliceable per cell.  Any other extension gets the single
    JSON document from :func:`telemetry_payload`.
    """
    payload = telemetry_payload(sweep, name)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".jsonl"):
            for cell in payload["cells"]:
                handle.write(json.dumps(
                    {"schema": TELEMETRY_BENCH_SCHEMA, "name": name, **cell},
                    separators=(",", ":")))
                handle.write("\n")
        else:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return payload


def validate_bench_telemetry(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` is valid ``bench_telemetry/v1``.

    Accepts either the single-document form (with a ``cells`` list) or
    one JSONL row (with an inline ``telemetry`` export).  Used by tests
    and the CI smoke step.
    """
    from ..metrics.telemetry import validate_telemetry

    if not isinstance(doc, dict):
        raise ValueError("bench_telemetry document must be a dict")
    if doc.get("schema") != TELEMETRY_BENCH_SCHEMA:
        raise ValueError(f"bad schema: {doc.get('schema')!r}")
    if "cells" in doc:
        cells = doc["cells"]
        if not isinstance(cells, list):
            raise ValueError("cells must be a list")
        for cell in cells:
            validate_telemetry(cell.get("telemetry"))
    elif "telemetry" in doc:
        validate_telemetry(doc["telemetry"])
    else:
        raise ValueError("document carries neither cells nor telemetry")
