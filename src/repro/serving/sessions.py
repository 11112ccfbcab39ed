"""Seeded session generator: who requests what, when.

The serving workload is an open arrival process over a churning user
population, the standard shape of gateway trace models:

* users arrive as a Poisson process (``arrival_rate`` per second);
* each user's *session* is a geometric number of requests (mean
  ``requests_per_user``) separated by exponential think times — so
  users depart when their session ends, and the concurrent-user count
  churns instead of being fixed;
* each request picks a content by the catalog's Zipf popularity.

Generation is a pure function of ``(spec, catalog)``: all randomness
comes from named :class:`~repro.sim.rng.RngRegistry` streams (one for
arrivals, one per user), so the request list is byte-identical across
reruns, machines, and — because it is generated *before* the simulator
runs, never inside it — across sweep worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim.rng import RngRegistry
from ..workload.catalog import ContentCatalog


@dataclass(frozen=True)
class SessionSpec:
    """Parameters of the arrival/session process."""

    users: int = 50
    arrival_rate: float = 25.0       # user arrivals per second (Poisson)
    requests_per_user: float = 2.0   # geometric mean session length
    think_time: float = 0.3          # mean seconds between a user's requests
    seed: int = 0
    max_requests: Optional[int] = None

    def __post_init__(self) -> None:
        if self.users <= 0:
            raise ValueError("users must be positive")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.requests_per_user < 1.0:
            raise ValueError("requests_per_user must be >= 1")
        if self.think_time < 0:
            raise ValueError("think_time must be non-negative")


@dataclass(frozen=True)
class Request:
    """One user request: issue ``content_id`` at sim time ``time``."""

    time: float
    user: int
    index: int        # position within the user's session
    content_id: int


def generate_sessions(spec: SessionSpec,
                      catalog: ContentCatalog) -> List[Request]:
    """The full, time-ordered request list of a serving run."""
    registry = RngRegistry(spec.seed)
    arrivals = registry.stream("serving:arrivals")
    # Probability a session continues after each request; geometric
    # session length with the requested mean.
    p_continue = 1.0 - 1.0 / spec.requests_per_user
    requests: List[Request] = []
    arrival_time = 0.0
    for user in range(spec.users):
        arrival_time += arrivals.expovariate(spec.arrival_rate)
        # One independent stream per user: adding a user (or a draw
        # inside one session) never perturbs any other user's session.
        rng = registry.stream(f"serving:user:{user}")
        t = arrival_time
        index = 0
        while True:
            requests.append(Request(time=t, user=user, index=index,
                                    content_id=catalog.sample(rng.random())))
            index += 1
            if rng.random() >= p_continue:
                break
            if spec.think_time > 0:
                t += rng.expovariate(1.0 / spec.think_time)
    requests.sort(key=lambda r: (r.time, r.user, r.index))
    if spec.max_requests is not None:
        requests = requests[:spec.max_requests]
    return requests
