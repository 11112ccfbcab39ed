"""Fixed-width table and series printers for the benchmark harness.

Every bench regenerates a paper artifact and prints it in a stable,
grep-friendly format so EXPERIMENTS.md can quote the output directly.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from .series import Series


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render a fixed-width table with a title rule."""
    materialised: List[List[str]] = [[_cell(value) for value in row]
                                     for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(title: str, x_label: str, series_list: Sequence[Series],
                  precision: int = 3) -> str:
    """Render aligned series (one column per line of a figure)."""
    headers = [x_label] + [s.name for s in series_list]
    xs = sorted({x for s in series_list for x in s.xs()})
    rows = []
    for x in xs:
        row: List[object] = [x]
        for s in series_list:
            match = [p for p in s.points if p.x == x]
            if match and match[0].n:
                row.append(f"{match[0].mean:.{precision}f}"
                           + (f" ±{match[0].ci95:.{precision}f}"
                              if match[0].n > 1 else ""))
            else:
                row.append("—")      # no sample at this x for this series
        rows.append(row)
    return format_table(title, headers, rows)


def format_recovery(title: str, summaries: Sequence[dict],
                    labels: Optional[Sequence[str]] = None) -> str:
    """Render resilience recovery summaries, one row per run.

    ``summaries`` are :meth:`TransferResult.recovery_summary` dicts;
    ``labels`` names each row (defaults to the row index).
    """
    if not summaries:
        return format_table(title, ["run"], [])
    keys = list(summaries[0].keys())
    if labels is None:
        labels = [str(i) for i in range(len(summaries))]
    rows = [[label] + [_cell_or_dash(summary.get(key)) for key in keys]
            for label, summary in zip(labels, summaries)]
    return format_table(title, ["run"] + keys, rows)


def _cell_or_dash(value: object) -> str:
    # None and nan are the same story told by different layers ("no
    # measurement exists"): a never-resynced run's time_to_resync is
    # None, a zero-packet link's loss_fraction is nan.  Both render as
    # the em-dash _cell already uses for nan.
    return "—" if value is None else _cell(value)


def _cell(value: object) -> str:
    if isinstance(value, float):
        # nan means "not measurable" (e.g. the σ of one sample) — an
        # em-dash reads unambiguously where "nan" looks like a bug.
        if math.isnan(value):
            return "—"
        return f"{value:.3f}"
    return str(value)


# ---------------------------------------------------------------------------
# telemetry rendering (repro timeline)
# ---------------------------------------------------------------------------

_CHART_GLYPHS = " .:-=+*#%@"


def format_timeseries(name: str, times: Sequence[float],
                      values: Sequence[Optional[float]],
                      width: int = 64, height: int = 8) -> str:
    """Render one telemetry time series as an ASCII chart.

    ``values`` is one aligned series from a ``telemetry/v1`` export
    (``None``/nan marks ticks where the gauge did not exist yet).
    Samples are bucketed into ``width`` columns (bucket mean), scaled
    into ``height`` rows, and plotted densest-glyph-at-the-value so the
    trajectory survives a plain-text terminal, a log file, and a diff.
    The header's min, max and last are read off the samples; the axis
    labels are the extreme bucket means the chart is scaled to.
    """
    points = [(t, float(v)) for t, v in zip(times, values)
              if v is not None and not math.isnan(float(v))]
    header = name
    if not points:
        return f"{header}\n  (no samples)"
    t_lo, t_hi = points[0][0], points[-1][0]
    span = (t_hi - t_lo) or 1.0
    # Fewer samples than columns would leave gaps; shrink to fit.
    width = max(1, min(width, len(points)))
    columns: List[List[float]] = [[] for _ in range(width)]
    for t, v in points:
        index = min(width - 1, int((t - t_lo) / span * width))
        columns[index].append(v)
    col_means = [sum(c) / len(c) if c else math.nan for c in columns]
    finite = [v for v in col_means if not math.isnan(v)]
    v_lo, v_hi = min(finite), max(finite)
    v_span = (v_hi - v_lo) or 1.0
    label_w = max(len(_axis_label(v_lo)), len(_axis_label(v_hi)))

    grid = [[" "] * width for _ in range(height)]
    for x, v in enumerate(col_means):
        if math.isnan(v):
            continue
        # Row 0 is the top; fill from the value down so area reads as
        # magnitude.
        level = (v - v_lo) / v_span
        row = height - 1 - min(height - 1, int(level * height))
        grid[row][x] = _CHART_GLYPHS[-1]
        for below in range(row + 1, height):
            grid[below][x] = _CHART_GLYPHS[2]

    samples = [v for _, v in points]
    lines = [f"{header}   [min {_axis_label(min(samples))}"
             f"  max {_axis_label(max(samples))}"
             f"  last {_axis_label(samples[-1])}]"]
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = _axis_label(v_hi)
        elif row_index == height - 1:
            label = _axis_label(v_lo)
        else:
            label = ""
        lines.append(f"  {label.rjust(label_w)} |{''.join(row)}")
    axis = f"  {' ' * label_w} +{'-' * width}"
    lines.append(axis)
    # The time labels sit under the first and last column, the right
    # one dropped where the chart is too narrow to keep them apart.
    left, right = _axis_label(t_lo), _axis_label(t_hi)
    gap = width - len(left) - len(right)
    ticks = left + " " * gap + right if gap >= 1 else left
    lines.append(f"  {' ' * label_w}  {ticks}  (sim seconds)")
    return "\n".join(lines)


def _axis_label(value: float) -> str:
    if value == int(value) and abs(value) < 1e7:
        return str(int(value))
    if abs(value) >= 1000:
        return f"{value:.0f}"
    return f"{value:.3g}"


def format_flight_recorder(events: Sequence[Dict[str, object]],
                           title: str = "Flight recorder") -> str:
    """Render a flight-recorder dump (telemetry/v1 ``flight_recorder``)."""
    rows = []
    for event in events:
        detail = event.get("detail") or {}
        kv = " ".join(f"{k}={v}" for k, v in detail.items())
        rows.append([f"{float(event['time']):.6f}",
                     str(event["source"]), str(event["event"]), kv])
    return format_table(title, ["time", "source", "event", "detail"], rows)
