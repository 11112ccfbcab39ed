"""Experiment harness: configs, runners, and paper scenarios."""

from .config import ExperimentConfig
from .mobility import MobilityConfig, MobilityResult, run_mobility
from .multiflow import (MultiFlowResult, run_concurrent_fetches,
                        run_sequential_fetches)
from .runner import Fetch, Testbed, build_testbed, run_fetches, run_transfer
from .sweep import (CellResult, SweepResult, SweepSpec, config_hash,
                    parallel_map, run_sweep, write_bench_json)

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "SweepResult",
    "SweepSpec",
    "config_hash",
    "parallel_map",
    "run_sweep",
    "write_bench_json",
    "MobilityConfig",
    "MobilityResult",
    "run_mobility",
    "MultiFlowResult",
    "run_concurrent_fetches",
    "run_sequential_fetches",
    "Fetch",
    "Testbed",
    "build_testbed",
    "run_fetches",
    "run_transfer",
]
