"""Metrics: per-run collectors, dependency graphs, reports."""

from .collectors import RatioPoint, TransferResult
from .depgraph import (DependencyGraph, format_dependency_trace,
                       graph_from_spans)
from .flame import FlameNode, build_flame, format_flame, to_folded
from .profiling import STAGES, StageProfiler, profiler_if
from .regression import (BENCH_DIFF_SCHEMA, BenchDiff, BenchSpec,
                         SentinelConfig, bench_diff_report,
                         format_bench_diff, load_bench_config,
                         run_bench_diff)
from .report import format_series, format_table, format_timeseries
from .series import Aggregate, Series
from .spans import (SPANS_SCHEMA, SpanRecorder, find_livelock_trace,
                    format_chain, spans_by_trace, spans_if, spans_rollup,
                    validate_spans)
from .telemetry import (TELEMETRY_SCHEMA, FlightRecorder, MetricsRegistry,
                        Telemetry, TelemetryConfig, TelemetrySampler,
                        telemetry_if, validate_telemetry)

__all__ = [
    "STAGES",
    "StageProfiler",
    "profiler_if",
    "SPANS_SCHEMA",
    "SpanRecorder",
    "spans_if",
    "spans_rollup",
    "spans_by_trace",
    "find_livelock_trace",
    "format_chain",
    "validate_spans",
    "FlameNode",
    "build_flame",
    "format_flame",
    "to_folded",
    "BENCH_DIFF_SCHEMA",
    "BenchDiff",
    "BenchSpec",
    "SentinelConfig",
    "bench_diff_report",
    "format_bench_diff",
    "load_bench_config",
    "run_bench_diff",
    "TELEMETRY_SCHEMA",
    "FlightRecorder",
    "MetricsRegistry",
    "Telemetry",
    "TelemetryConfig",
    "TelemetrySampler",
    "telemetry_if",
    "validate_telemetry",
    "format_timeseries",
    "RatioPoint",
    "TransferResult",
    "DependencyGraph",
    "format_dependency_trace",
    "graph_from_spans",
    "format_series",
    "format_table",
    "Aggregate",
    "Series",
]
