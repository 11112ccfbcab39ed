"""Discrete-event simulation substrate: engine, RNG streams, links, nodes."""

from .engine import Event, SimulationError, Simulator, Timer
from .faults import FaultInjector, match_nth_data
from .link import Link, LinkStats
from .node import Host, Middlebox, Node
from .rng import RngRegistry, derive_seed

__all__ = [
    "Event",
    "FaultInjector",
    "match_nth_data",
    "SimulationError",
    "Simulator",
    "Timer",
    "Link",
    "LinkStats",
    "Host",
    "Middlebox",
    "Node",
    "RngRegistry",
    "derive_seed",
]
