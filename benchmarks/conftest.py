"""Shared helpers for the benchmark harness.

Each ``bench_*`` module drives one ablation, extension or cost
measurement beyond the paper's tables and prints what it reproduced
(see EXPERIMENTS.md).  The paper's own tables and figures, and the
checks on them, are ``python -m repro artifact``.
"""

from __future__ import annotations

import os


def bench_workers():
    """Sweep worker count from ``REPRO_BENCH_WORKERS`` (None = serial).

    Parallel and serial sweeps aggregate bit-identically (see
    repro.experiments.sweep), so the workers knob only changes
    wall-clock, never the reproduced numbers.
    """
    value = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    return int(value) if value else None


_CAPTURE_MANAGER = None


def pytest_configure(config):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = config.pluginmanager.getplugin("capturemanager")


def print_report(title: str, report: str) -> None:
    """Print a reproduced artifact so it lands in the run's output.

    Capture is suspended around the print so the tables appear even
    without ``-s``.
    """
    banner = "#" * max(20, len(title) + 4)
    text = f"\n{banner}\n# {title}\n{banner}\n{report}\n"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(text)
    else:
        print(text)
