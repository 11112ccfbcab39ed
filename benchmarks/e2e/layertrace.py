"""Outside-in layer trace: spans around the public entry points.

The benchmark owns the instrumentation.  :class:`LayerTracer` replaces
the public entry points of every layer (``Simulator.run``,
``Link.send``, ``TCPConnection.segment_arrived``, ...) with thin
wrappers that record one in-memory span per call -- site, start, end,
parent -- and puts the originals back before any timed repetition.
Nothing inside ``src/`` knows it is being traced.

A layer's **self time** is the duration of its spans minus the part
their child spans cover; the shares of all layers therefore add up to
the time under the root spans.  Work reached only through private
callbacks (``Link._transmitted``, TCP timers firing) has no wrapper of
its own and lands in the self time of the layer that invoked it --
``sim.engine`` for everything dispatched straight off the event heap.

The wrappers also remember the objects they were called on, so exact
counters can be read from their public ``stats`` afterwards.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layers are the module names under ``src/repro``.
LAYERS = ("sim.engine", "sim.link", "sim.node", "net.tcp", "gateway",
          "core.encoder", "core.decoder", "core.cache",
          "core.fingerprint", "serving", "workload")

_CACHE_METHODS = ("insert_packet", "lookup", "lookup_view",
                  "lookup_previous", "flush")


def trace_sites() -> List[Tuple[type, str, str]]:
    """``(class, method, layer)`` for every wrapped entry point."""
    from repro.core.cache import ByteCache
    from repro.core.decoder import ByteCachingDecoder
    from repro.core.encoder import ByteCachingEncoder
    from repro.core.fingerprint import FingerprintScheme
    from repro.core.shardcache import ShardedByteCache
    from repro.gateway.middlebox import DecoderGateway, EncoderGateway
    from repro.net.tcp import TCPConnection
    from repro.serving.engine import FlowPool
    from repro.sim.engine import Simulator
    from repro.sim.link import Link
    from repro.sim.node import Host, Node
    from repro.workload.catalog import ContentCatalog

    sites: List[Tuple[type, str, str]] = [
        (Simulator, "run", "sim.engine"),
        (Link, "send", "sim.link"),
        (Node, "receive", "sim.node"),
        (Host, "receive", "sim.node"),
        (TCPConnection, "segment_arrived", "net.tcp"),
        (TCPConnection, "send", "net.tcp"),
        (TCPConnection, "connect", "net.tcp"),
        (TCPConnection, "close", "net.tcp"),
        (EncoderGateway, "process", "gateway"),
        (DecoderGateway, "process", "gateway"),
        (ByteCachingEncoder, "encode", "core.encoder"),
        (ByteCachingDecoder, "decode", "core.decoder"),
        (ByteCachingDecoder, "insert_raw_payload", "core.decoder"),
        (FingerprintScheme, "anchors", "core.fingerprint"),
        (FingerprintScheme, "batch_anchors", "core.fingerprint"),
        (FlowPool, "sweep", "serving"),
        (ContentCatalog, "object_bytes", "workload"),
    ]
    for cache_class in (ByteCache, ShardedByteCache):
        sites.extend((cache_class, method, "core.cache")
                     for method in _CACHE_METHODS)
    # A method a subclass merely inherits is wrapped once, on the class
    # that defines it (Host.receive is Node.receive today).
    return [(owner, method, layer) for owner, method, layer in sites
            if method in vars(owner)]


class LayerTracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self.site_names: List[str] = []
        self.site_layers: List[str] = []
        self._site: List[int] = []
        self._start: List[float] = []
        self._end: List[float] = []
        self._parent: List[int] = []
        self._stack: List[int] = [-1]
        #: Span index at which each traced unit began.
        self.unit_offsets: List[int] = []
        #: Wall seconds spent inside the traced units' public calls.
        self.unit_seconds = 0.0
        self._unit_began = 0.0
        #: class name -> instances seen as ``self`` at a wrapped site.
        self.seen: Dict[str, Dict[int, Any]] = {}
        self._installed: List[Tuple[type, str, Callable[..., Any]]] = []
        self._call_sites: Dict[str, int] = {}

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every trace site (idempotent: refuses a second install)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, method, layer in trace_sites():
            original = vars(owner)[method]
            site = self._new_site(f"{owner.__name__}.{method}", layer)
            seen = self.seen.setdefault(owner.__name__, {})
            setattr(owner, method, self._wrapper(site, original, seen))
            self._installed.append((owner, method, original))

    def restore(self) -> None:
        """Put every original back."""
        while self._installed:
            owner, method, original = self._installed.pop()
            setattr(owner, method, original)

    def call(self, layer: str, name: str, fn: Callable[..., Any],
             *args: Any) -> Any:
        """Run ``fn(*args)`` under a span (for module-level entry points
        such as ``run_serving``, which the benchmark calls itself)."""
        if name not in self._call_sites:
            self._call_sites[name] = self._new_site(name, layer)
        return self._wrapper(self._call_sites[name], fn, None)(*args)

    def begin_unit(self) -> None:
        """The public call of one unit starts now."""
        self.unit_offsets.append(len(self._site))
        self._unit_began = self._clock()

    def end_unit(self) -> None:
        self.unit_seconds += self._clock() - self._unit_began

    def _new_site(self, name: str, layer: str) -> int:
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        self.site_names.append(name)
        self.site_layers.append(layer)
        return len(self.site_names) - 1

    def _wrapper(self, site: int, original: Callable[..., Any],
                 seen: Optional[Dict[int, Any]]) -> Callable[..., Any]:
        sites, starts, ends = self._site, self._start, self._end
        parents, stack = self._parent, self._stack
        clock = self._clock

        def traced(*args: Any, **kwargs: Any) -> Any:
            if seen is not None:
                seen[id(args[0])] = args[0]
            index = len(sites)
            sites.append(site)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    # -- analysis ----------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Self time and call counts per layer and per site."""
        count = len(self._site)
        site = np.asarray(self._site, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        duration = (np.asarray(self._end, dtype=np.float64)
                    - np.asarray(self._start, dtype=np.float64))
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=count)
        self_time = duration - covered
        n_sites = len(self.site_names)
        site_self = np.bincount(site, weights=self_time, minlength=n_sites)
        site_calls = np.bincount(site, minlength=n_sites)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        for index, layer in enumerate(self.site_layers):
            layer_self[layer] += float(site_self[index])
            layer_calls[layer] += int(site_calls[index])
        return {
            "spans": count,
            "root_seconds": float(duration[~nested].sum()),
            "layer_self_seconds": layer_self,
            "layer_calls": layer_calls,
            "site_calls": {name: int(site_calls[index])
                           for index, name in enumerate(self.site_names)},
        }

    def unit_spans(self, unit: int) -> Dict[str, Any]:
        """Raw spans of one traced unit, parents re-based to the slice."""
        low = self.unit_offsets[unit]
        high = (self.unit_offsets[unit + 1]
                if unit + 1 < len(self.unit_offsets) else len(self._site))
        origin = self._start[low] if high > low else 0.0
        return {
            "schema": "repro.e2e-spans/v1",
            "unit": unit,
            "sites": [{"name": name, "layer": layer}
                      for name, layer in zip(self.site_names,
                                             self.site_layers)],
            "columns": ["site", "start_s", "end_s", "parent"],
            "spans": [[self._site[i], self._start[i] - origin,
                       self._end[i] - origin,
                       (self._parent[i] - low
                        if self._parent[i] >= low else -1)]
                      for i in range(low, high)],
        }
