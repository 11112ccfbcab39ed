"""Differential test: the row-per-tick ``TelemetrySampler`` against the
per-gauge sampler it replaced (``tests/reference_telemetry.py``).

Hypothesis draws a script of registry events — one-gauge and
multi-gauge sources, registrations after sampling began,
re-registrations, teardowns (``fn = None``), values that flip to nan
or inf, sources that start raising — on a simulated clock, with
a sample bound small enough that decimation crossings are common.  The
script plays twice, in two identical worlds, each sampled by one of
the two samplers through its own tick.  ``times``, ``series()`` and
``export()`` must agree, and the live sampler's newest row must be
what ``registry.snapshot()`` reads (the ``final_gauges`` of an export).
"""

import math

from hypothesis import given, settings, strategies as st

from repro.metrics.telemetry import MetricsRegistry, TelemetrySampler
from repro.sim.engine import Simulator
from tests.reference_telemetry import TelemetrySampler as ReferenceSampler

NAMES = ["a", "b", "c", "d"]
VALUES = st.one_of(st.integers(-5, 5), st.floats(-10, 10),
                   st.sampled_from([math.nan, math.inf, -math.inf]),
                   st.booleans())


class World:
    """One simulator, one registry, one state dict the gauges read."""

    def __init__(self, sampler_cls, interval, max_samples):
        self.sim = Simulator()
        self.registry = MetricsRegistry()
        self.state = {}
        self.raising = set()
        self.sources = {}
        self.lone = {}
        self.sampler = sampler_cls(self.sim, self.registry,
                                   interval=interval, max_samples=max_samples)

    def read(self, key):
        if key in self.raising:
            raise RuntimeError(key)
        return self.state.get(key, 0)

    def apply(self, step):
        op, args = step[0], step[1:]
        if op == "pull":
            name, = args
            self.lone[name] = self.registry.source(
                lambda: (self.read(name),), [("lone", {"g": name})])
        elif op == "teardown":
            name, = args
            if name in self.lone:
                self.lone[name].fn = None
        elif op == "source":
            index, width = args
            # Width is fixed by the first registration of an index:
            # a re-registration names the same gauges.
            width = self.sources.get(index, (None, width))[1]
            keys = [f"s{index}.{slot}" for slot in range(width)]

            def read(keys=keys, index=index):
                if f"s{index}" in self.raising:
                    raise RuntimeError(index)
                return tuple(self.state.get(key, 0) for key in keys)

            source = self.registry.source(
                read, [("src", {"i": index, "slot": slot})
                       for slot in range(width)])
            self.sources[index] = (source, width)
        elif op == "source_teardown":
            index, = args
            if index in self.sources:
                self.sources[index][0].fn = None
        elif op == "value":
            key, value = args
            self.state[key] = value
        elif op == "raise":
            key, on = args
            (self.raising.add if on else self.raising.discard)(key)
        else:  # pragma: no cover - strategy and player out of step
            raise AssertionError(op)


STEPS = st.one_of(
    st.tuples(st.just("pull"), st.sampled_from(NAMES)),
    st.tuples(st.just("teardown"), st.sampled_from(NAMES)),
    st.tuples(st.just("source"), st.integers(0, 2), st.integers(1, 3)),
    st.tuples(st.just("source_teardown"), st.integers(0, 2)),
    st.tuples(st.just("value"),
              st.sampled_from(NAMES + [f"s{i}.{j}" for i in range(3)
                                       for j in range(3)]),
              VALUES),
    st.tuples(st.just("raise"),
              st.sampled_from(NAMES + ["s0", "s1", "s2"]), st.booleans()),
)


def canon(values):
    """nan compares unequal to itself; name it for the comparison."""
    return ["nan" if isinstance(v, float) and math.isnan(v) else v
            for v in values]


def play(sampler_cls, script, interval, max_samples, until):
    world = World(sampler_cls, interval, max_samples)
    for at, step in script:
        world.sim.at(at, world.apply, step)
    world.sampler.start()
    world.sim.run(until=until)
    world.sampler.sample_once()   # what Telemetry.export takes last
    return world


@settings(max_examples=200, deadline=None)
@given(script=st.lists(st.tuples(st.floats(0.0, 1.5), STEPS), max_size=40),
       interval=st.sampled_from([0.01, 0.05, 0.1]),
       max_samples=st.integers(8, 24),
       until=st.floats(0.0, 2.0))
def test_row_sampler_exports_what_the_per_gauge_sampler_did(
        script, interval, max_samples, until):
    live = play(TelemetrySampler, script, interval, max_samples, until)
    reference = play(ReferenceSampler, script, interval, max_samples, until)
    assert live.sampler.times == reference.sampler.times
    live_series = live.sampler.series()
    reference_series = reference.sampler.series()
    assert list(live_series) == list(reference_series)
    for key, values in reference_series.items():
        assert canon(live_series[key]) == canon(values), key
    assert live.sampler.export() == reference.sampler.export()
    assert live.sampler.latest() == live.registry.snapshot()
