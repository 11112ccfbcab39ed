"""The per-gauge ``TelemetrySampler`` that ``repro.metrics.telemetry``
shipped before the sampler read one source per tick, kept verbatim as
the differential reference (ROADMAP: reference variants live in tests,
not in ``src/``).

A tick calls every gauge's ``fn`` on its own, converts the value with
``float`` and appends it to that gauge's series list.  It reads the
registry through ``len()`` and ``sources``, and reads a gauge as a
:meth:`~repro.metrics.telemetry.MetricsRegistry.source` gauge reads its
own value back (its source's ``fn`` indexed, nan once the source is
torn down), so both samplers can run against one registry.
``tests/test_telemetry_differential.py`` ticks the two side by side and
compares ``times``, ``series()`` and ``export()``.
"""

import math
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Tuple

from repro.metrics.telemetry import MetricsRegistry


class TelemetrySampler:
    """Snapshots registry gauges on a sim-time tick into aligned series.

    All series share one ``times`` axis.  A gauge registered after
    sampling began is nan-padded back to the first tick so every series
    has ``len(times)`` points.  When ``max_samples`` is hit the sampler
    *decimates*: it drops every other stored sample and doubles the
    tick interval, so an arbitrarily long (e.g. stalled-until-limit)
    run stays bounded while keeping whole-run coverage.
    """

    def __init__(self, sim, registry: MetricsRegistry,
                 interval: float = 0.05, max_samples: int = 2048):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if max_samples < 8:
            raise ValueError("max_samples must be at least 8")
        self.sim = sim
        self.registry = registry
        self.interval = float(interval)
        self.initial_interval = float(interval)
        self.max_samples = int(max_samples)
        self.times: List[float] = []
        self._series: "OrderedDict[str, List[float]]" = OrderedDict()
        # (series.append, read) per gauge, bound the first tick that
        # sees it; registry order, which never changes.
        self._bound: List[Tuple[Callable[[float], None],
                                Callable[[], float]]] = []
        self.decimations = 0
        self._started = False

    def start(self) -> None:
        """Take the t=0 sample and begin ticking."""
        if self._started:
            return
        self._started = True
        self._tick()

    def sample_once(self) -> None:
        """Record one aligned sample of every gauge right now."""
        times = self.times
        bound = self._bound
        if len(bound) != len(self.registry):
            self._bind_new_gauges(len(times))
        times.append(self.sim.now)
        for append, read in bound:
            # The gauge reads its source's ``fn`` per tick:
            # unregister_connection clears it and re-registration
            # replaces it.
            try:
                append(float(read()))
            # lint: disable=hygiene-swallowed-violation(gauge callbacks read counters and call no oracle; torn-down state must read nan)
            except Exception:
                append(math.nan)
        if len(times) >= self.max_samples:
            self._decimate()

    def _bind_new_gauges(self, n_before: int) -> None:
        """Late registration: nan-pad back along the shared time axis.

        A registry never drops entries and a source's gauges sit
        together in registration order, so the gauges past the bound
        ones are exactly the new ones.  Each reads its one value back
        through its source's ``fn``, as a registered gauge does.
        """
        bound = self._bound
        gauges = [(key, lambda s=source, i=index: s.fn()[i])
                  for source in self.registry.sources
                  for index, key in enumerate(source.keys)]
        for key, fn in gauges[len(bound):]:
            values = [math.nan] * n_before
            self._series[key] = values
            bound.append((values.append, fn))

    def series(self) -> Dict[str, List[float]]:
        """key -> aligned value list (same length as :attr:`times`)."""
        return dict(self._series)

    # -- internal ----------------------------------------------------------

    def _tick(self) -> None:
        self.sample_once()
        self.sim.after(self.interval, self._tick)

    def _decimate(self) -> None:
        self.decimations += 1
        self.interval *= 2.0
        # In place: the bound ``append`` of every series must survive.
        del self.times[1::2]
        for values in self._series.values():
            del values[1::2]

    def export(self) -> Dict[str, Any]:
        return {
            "interval": self.interval,
            "initial_interval": self.initial_interval,
            "decimations": self.decimations,
            "times": list(self.times),
            # Every stored sample is a float; nan and +-inf fail the
            # range test and export as null (see _json_number).
            "series": {key: [v if -math.inf < v < math.inf else None
                             for v in values]
                       for key, values in self._series.items()},
        }

