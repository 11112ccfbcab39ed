"""Sweep aggregation: mean/σ/CI over seeds for figure series."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence


def percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of ``values`` at ``fraction`` in (0, 1]
    (deterministic, no interpolation); None when there are no values."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


@dataclass
class Aggregate:
    """Summary statistics of one sweep coordinate."""

    x: float
    values: List[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            return math.nan
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Sample standard deviation; nan when n < 2.

        A single sample carries *no* spread information — reporting 0.0
        would read as "measured, no uncertainty", which is the opposite
        of the truth.  Report printers render the nan as ``—``.
        """
        if len(self.values) < 2:
            return math.nan
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values)
                         / (len(self.values) - 1))

    @property
    def stderr(self) -> float:
        if len(self.values) < 2:
            return math.nan
        return self.std / math.sqrt(len(self.values))

    @property
    def ci95(self) -> float:
        """Half-width of a ~95 % normal-approximation CI."""
        return 1.96 * self.stderr

    def add(self, value: Optional[float]) -> None:
        if value is not None and not math.isnan(value):
            self.values.append(float(value))


@dataclass
class Series:
    """A named sequence of aggregates (one figure line)."""

    name: str
    points: List[Aggregate] = field(default_factory=list)

    def point(self, x: float) -> Aggregate:
        for aggregate in self.points:
            if aggregate.x == x:
                return aggregate
        aggregate = Aggregate(x=x)
        self.points.append(aggregate)
        return aggregate

    def xs(self) -> List[float]:
        return [p.x for p in self.points]
