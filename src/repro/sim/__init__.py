"""Discrete-event simulation substrate: engine, RNG streams, links, nodes."""

from .engine import Event, SimulationError, Simulator, Timer
from .faults import (FaultInjector, drop_indices, match_nth_data,
                     match_stream_offsets)
from .link import DuplexLink, Link, LinkStats
from .node import Host, Middlebox, Node
from .rng import RngRegistry, derive_seed

__all__ = [
    "Event",
    "FaultInjector",
    "drop_indices",
    "match_nth_data",
    "match_stream_offsets",
    "SimulationError",
    "Simulator",
    "Timer",
    "DuplexLink",
    "Link",
    "LinkStats",
    "Host",
    "Middlebox",
    "Node",
    "RngRegistry",
    "derive_seed",
]
