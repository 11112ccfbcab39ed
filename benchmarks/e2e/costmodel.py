"""Calibrated host cost: CPU time in units of a frozen reference kernel.

Raw CPU seconds of one identical batch swing by 20-30 % on this small
shared box -- bursts of a few hundred milliseconds and whole minutes in
which everything runs a quarter slower -- so seconds cannot be gated.
The harness instead brackets every timed unit with one pass of
:func:`calibration_kernel` and reports

    cost(unit) = process_time(unit) / mean(adjacent calibration passes)

in **cu**.  One cu is one kernel pass, about 10 ms on a quiet core.  A
slow phase of the host slows the unit and its two neighbouring passes
alike, so the ratio moves far less than either time.  Every unit is
repeated K times and the gated value is the sum over units of the
per-unit lower quartile: interference only ever adds time, so the low
side of the distribution is the stable side.

The kernel is a miniature of the program it calibrates: a heap-driven
event loop bouncing small slotted objects between four stations that
store them in tuple-keyed dicts and slice a 1460-byte payload.  That is
deliberate.  A first kernel of tight loops and numpy calls (heap, dict,
slices, cumsum/flatnonzero, a scatter into 16 MB) followed only about
two thirds of a host slow-down (its cost estimate rose 0.3 % for every
1 % the raw time rose, and by twice that on the serving workload); this
one follows 85-95 % of it on all workloads, because it stresses the
interpreter, the allocator and the data cache the way the simulator
does.  It imports nothing from ``repro``: a faster simulator must not
make the yardstick shorter.

The kernel is **frozen**: changing any constant or statement in it
redefines the cu and invalidates every recorded baseline.
"""

from __future__ import annotations

import heapq
from time import process_time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

#: Kernel constants (frozen, see module docstring).
TOKENS = 1100
STATIONS = 4
HOPS = 8
PAYLOAD_BYTES = 1460
CHUNK_BYTES = 96


class _Token:
    __slots__ = ("key", "hops", "chunk", "meta")

    def __init__(self, key: int, chunk: bytes) -> None:
        self.key = key
        self.hops = 0
        self.chunk = chunk
        self.meta = (key, len(chunk))


class _Loop:
    def __init__(self) -> None:
        self.heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self.now = 0.0
        self.seq = 0
        self.done = 0

    def post(self, at: float, fn: Callable[[Any], None], arg: Any) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (at, self.seq, fn, arg))

    def run(self) -> None:
        heap = self.heap
        pop = heapq.heappop
        while heap:
            at, _seq, fn, arg = pop(heap)
            self.now = at
            fn(arg)
            self.done += 1


class _Station:
    def __init__(self, loop: _Loop, name: str) -> None:
        self.loop = loop
        self.name = name
        self.peer: "_Station" = self
        self.received = 0
        self.octets = 0
        self.table: Dict[Tuple[str, int], _Token] = {}
        self.log: List[Tuple[int, int]] = []

    def receive(self, token: _Token) -> None:
        self.received += 1
        self.octets += len(token.chunk)
        token.hops += 1
        self.table[(self.name, token.key & 255)] = token
        if token.hops < HOPS:
            delay = 0.001 * ((token.key * 31 + token.hops) % 7 + 1)
            self.loop.post(self.loop.now + delay, self.peer.receive, token)
        else:
            self.log.append(token.meta)


def calibration_kernel(payload: bytes) -> int:
    """The frozen reference workload; returns the events it dispatched."""
    loop = _Loop()
    stations = [_Station(loop, f"s{index}") for index in range(STATIONS)]
    for index, station in enumerate(stations):
        station.peer = stations[(index + 1) % STATIONS]
    for key in range(TOKENS):
        offset = (key * 37) % 1024
        loop.post(key * 0.0005, stations[key % STATIONS].receive,
                  _Token(key, payload[offset:offset + CHUNK_BYTES]))
    loop.run()
    return loop.done


class Calibrator:
    """Runs kernel passes and keeps the log of their CPU seconds."""

    def __init__(self) -> None:
        self._payload = bytes((i * 131 + 7) & 0xFF
                              for i in range(PAYLOAD_BYTES))
        self.passes: List[float] = []
        calibration_kernel(self._payload)                    # warm-up

    def run(self) -> float:
        """One kernel pass; returns (and logs) its CPU seconds."""
        started = process_time()
        calibration_kernel(self._payload)
        elapsed = process_time() - started
        self.passes.append(elapsed)
        return elapsed


def lower_quartile(values: Sequence[float]) -> float:
    """First quartile, inclusive rule (numpy's default): never below the
    minimum, and with one sample that sample."""
    return float(np.quantile(values, 0.25))


def iqr_ratio(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median of ``values`` (0.0 for a single sample)."""
    low, mid, high = np.quantile(values, (0.25, 0.5, 0.75))
    return float((high - low) / mid) if mid else 0.0


def round_costs(unit_seconds: Sequence[float],
                calibration_seconds: Sequence[float]) -> List[float]:
    """Costs in cu of one round of back-to-back units.

    ``calibration_seconds`` holds the pass before the first unit, the
    passes between consecutive units, and the pass after the last: one
    more entry than ``unit_seconds``.  Unit ``i`` is divided by the mean
    of passes ``i`` and ``i + 1``.
    """
    if len(calibration_seconds) != len(unit_seconds) + 1:
        raise ValueError("need one calibration pass on each side of "
                         "every unit")
    return [seconds / ((calibration_seconds[i]
                        + calibration_seconds[i + 1]) / 2.0)
            for i, seconds in enumerate(unit_seconds)]
