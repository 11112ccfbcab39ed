"""Per-stage wall-clock profiling of the simulation hot path.

A :class:`StageProfiler` accumulates (total seconds, call count) per
named stage.  The instrumented code — the encoder (``fingerprint``,
``table_probe``, ``region_expand``, ``wire_pack``, ``cache_ops``), the
decoder's cache update (``decode_fingerprint``, ``decode_cache_ops``:
one profiler serves both cores of a pair, so the decoder books under
its own names) — holds an optional profiler reference:
when it is ``None`` (the default) each hook costs one attribute load
and an identity check, so profiling is effectively free when off.

Enable it per run with ``ExperimentConfig(profile=True)`` (``repro run
--profile``); the result lands in
:attr:`repro.metrics.collectors.TransferResult.profile`, which the e2e
harness reads for its encoder stage shares.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

#: Canonical stage names, in pipeline order (unknown stages are allowed;
#: these are the ones the built-in instrumentation emits).
STAGES = ("fingerprint", "table_probe", "region_expand", "wire_pack",
          "cache_ops", "decode_fingerprint", "decode_cache_ops")


class StageProfiler:
    """Accumulates per-stage wall-clock time and call counts."""

    __slots__ = ("totals", "counts")

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, stage: str, elapsed: float) -> None:
        """Record one timed section of ``stage``."""
        totals = self.totals
        if stage in totals:
            totals[stage] += elapsed
            self.counts[stage] += 1
        else:
            totals[stage] = elapsed
            self.counts[stage] = 1

    def stages(self) -> Iterator[Tuple[str, float, int]]:
        """(stage, total seconds, calls), canonical stages first."""
        seen = set()
        for stage in STAGES:
            if stage in self.totals:
                seen.add(stage)
                yield stage, self.totals[stage], self.counts[stage]
        for stage in sorted(self.totals):
            if stage not in seen:
                yield stage, self.totals[stage], self.counts[stage]

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly snapshot: stage -> {seconds, calls}."""
        return {stage: {"seconds": total, "calls": float(calls)}
                for stage, total, calls in self.stages()}


def profiler_if(enabled: bool) -> Optional[StageProfiler]:
    """``StageProfiler()`` when enabled, else ``None`` (the fast path)."""
    return StageProfiler() if enabled else None
