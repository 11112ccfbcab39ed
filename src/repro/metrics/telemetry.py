"""Unified run telemetry: metrics registry, sim-time sampler, flight recorder.

The paper's key effects are *trajectories*, not end-of-run scalars:
aggressive encoding inflates perceived loss over time until TCP's
window collapses and the RTO backs off exponentially (Fig. 6, Fig. 13).
:class:`~repro.metrics.collectors.TransferResult` only snapshots the
end state; this module records how a run got there.

Three cooperating pieces, modelled on what a production DRE middlebox
would ship with:

* :class:`MetricsRegistry` — label-aware gauges.  Gauges are
  *pull-based*: they hold a callable read at sample time, so
  instrumented hot paths pay nothing while the sampler is idle.
  Components accept an optional registry/telemetry reference and guard
  every use with one ``is not None`` check — the disabled path stays
  within the ``bench_hotpath`` overhead budget.
* :class:`TelemetrySampler` — snapshots every registered gauge on a
  simulated-time tick into *aligned* time series (one shared time axis;
  gauges registered mid-run are nan-padded back to the start).  Memory
  is bounded: when ``max_samples`` is reached the sampler halves its
  history and doubles its interval, keeping full-run coverage at
  degrading resolution instead of truncating the tail.
* :class:`FlightRecorder` — the run's one event log: a bounded ring of
  recent events per flow (falling back to per-source).  Nodes and
  gateways write to it through :meth:`repro.sim.node.Node.note` (drops,
  encodes, resyncs, watchdog trips) and the verification harness notes
  its own findings beside them.  It is dumped automatically on stall,
  watchdog trip or time-limit expiry so a failed run is
  post-mortem-debuggable from its result object alone.

Everything is wired per run by :mod:`repro.experiments.runner` when
``ExperimentConfig(telemetry=True)``; the export (schema
``telemetry/v1``) lands in ``TransferResult.telemetry``, flows through
the sweep engine into ``bench_telemetry/v1`` files, and renders as
ASCII time series via ``repro timeline``.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

TELEMETRY_SCHEMA = "telemetry/v1"

#: Flight-recorder rows carried by a post-mortem export.
DUMP_EVENTS = 64


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical ``name{k=v,...}`` identity of one labelled metric."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Gauge:
    """A labelled instantaneous value.

    Either *pull-based* (constructed with ``fn``, read at sample time —
    the form every built-in instrumentation site uses, because it costs
    the instrumented code nothing) or *push-based* via :meth:`set`.
    """

    __slots__ = ("name", "labels", "key", "fn", "_value")

    def __init__(self, name: str, labels: Dict[str, Any],
                 fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.labels = labels
        #: ``name{k=v,...}``, fixed for life, so built once.
        self.key = metric_key(name, labels)
        self.fn = fn
        self._value = math.nan

    def set(self, value: float) -> None:
        self._value = float(value)

    def read(self) -> float:
        if self.fn is not None:
            try:
                return float(self.fn())
            # lint: disable=hygiene-swallowed-violation(gauge callbacks read counters and call no oracle; torn-down state must read nan)
            except Exception:
                return math.nan
        return self._value


class MetricsRegistry:
    """Label-aware registry of gauges.

    Gauges are memoised by ``(name, labels)``: asking twice for the
    same identity returns the same object, so independent components
    can share a gauge without coordination.
    """

    def __init__(self) -> None:
        self._gauges: "OrderedDict[str, Gauge]" = OrderedDict()

    # -- registration ------------------------------------------------------

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              **labels: Any) -> Gauge:
        key = metric_key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = Gauge(name, labels, fn)
            self._gauges[key] = gauge
        elif fn is not None:
            gauge.fn = fn
        return gauge

    # -- introspection -----------------------------------------------------

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def __len__(self) -> int:
        return len(self._gauges)

    def snapshot(self) -> Dict[str, Optional[float]]:
        """Instantaneous JSON-friendly reading of every gauge."""
        return {g.key: _json_number(g.read())
                for g in self._gauges.values()}


def _json_number(value: float) -> Optional[float]:
    """nan/inf are not valid JSON scalars; export them as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------

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
        # (series.append, gauge) per gauge, bound the first tick that
        # sees it; registry order, which never changes.
        self._bound: List[Tuple[Callable[[float], None], Gauge]] = []
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
        if len(bound) != len(self.registry._gauges):
            self._bind_new_gauges(len(times))
        times.append(self.sim.now)
        for append, gauge in bound:
            # ``fn`` is read per tick: unregister_connection clears it
            # and re-registration replaces it.
            fn = gauge.fn
            if fn is None:
                append(gauge._value)
                continue
            try:
                append(float(fn()))
            # lint: disable=hygiene-swallowed-violation(gauge callbacks read counters and call no oracle; torn-down state must read nan)
            except Exception:
                append(math.nan)
        if len(times) >= self.max_samples:
            self._decimate()

    def _bind_new_gauges(self, n_before: int) -> None:
        """Late registration: nan-pad back along the shared time axis.

        A registry never drops entries, so the gauges past the bound
        ones are exactly the new ones.
        """
        bound = self._bound
        for gauge in list(self.registry.gauges())[len(bound):]:
            values = [math.nan] * n_before
            self._series[gauge.key] = values
            bound.append((values.append, gauge))

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


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

class FlightRecorder:
    """Bounded ring of recent events, grouped per flow.

    Events arrive through :meth:`record` from the nodes and gateways
    the runner attached it to (:meth:`repro.sim.node.Node.note`) and
    from explicit :meth:`note` calls (the verification harness).
    Grouping key: the event detail's ``flow`` if present, else the
    emitting source — so a chatty component cannot evict another flow's
    history.  Both the ring length and the number of distinct groups
    are bounded; when a new group would exceed the bound it spills into
    a shared overflow ring rather than growing without limit.
    """

    def __init__(self, ring_size: int = 128, max_flows: int = 16):
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
        if max_flows <= 0:
            raise ValueError("max_flows must be positive")
        self.ring_size = ring_size
        self.max_flows = max_flows
        self._rings: "OrderedDict[Any, deque]" = OrderedDict()
        self._overflow: deque = deque(maxlen=ring_size)
        self._seq = 0
        self.events_seen = 0
        # Duck-typed causal span recorder (repro.metrics.spans).  When
        # set, recorded events are annotated with the trace/span ids of
        # the packet they concern (falling back to the active span
        # context), so a flight-recorder dump attached to an
        # InvariantViolation points back at a replayable causal chain.
        self.spans = None

    def record(self, time: float, source: str, event: str,
               detail: Optional[Dict[str, Any]] = None) -> None:
        """Append one event to its flow's ring.

        ``detail`` belongs to the caller, so the trace/span ids ride
        beside it in the ring and are merged only into :meth:`dump`'s
        copy.
        """
        detail = detail if detail is not None else {}
        trace_id = span_id = None
        spans = self.spans
        if spans is not None and "trace" not in detail:
            trace_id, span_id = spans.ids_for_packet(detail.get("packet_id"))
            if trace_id is None:
                trace_id, span_id = spans.current_ids()
        key = detail.get("flow", source)
        ring = self._rings.get(key)
        if ring is None:
            if len(self._rings) >= self.max_flows:
                ring = self._overflow
            else:
                ring = deque(maxlen=self.ring_size)
                self._rings[key] = ring
        self.events_seen += 1
        self._seq += 1
        ring.append((time, self._seq, source, event, detail, trace_id,
                     span_id))

    def note(self, time: float, source: str, event: str,
             **detail: Any) -> None:
        """Record an event given as keyword details."""
        self.record(time, source, event, detail)

    def dump(self, max_events: Optional[int] = None) -> List[Dict[str, Any]]:
        """All retained events merged in time order (oldest first).

        ``max_events`` keeps only the most recent N after merging.
        """
        merged: List[Tuple[Any, ...]] = []
        for ring in self._rings.values():
            merged.extend(ring)
        merged.extend(self._overflow)
        merged.sort(key=lambda item: (item[0], item[1]))
        if max_events is not None:
            merged = merged[-max_events:]
        rows = []
        for time, _seq, source, event, detail, trace_id, span_id in merged:
            detail = dict(detail)
            if trace_id is not None:
                detail["trace"] = trace_id
                detail["span"] = span_id
            rows.append({"time": time, "source": source, "event": event,
                         "detail": detail})
        return rows

    def __len__(self) -> int:
        return (sum(len(ring) for ring in self._rings.values())
                + len(self._overflow))


# ---------------------------------------------------------------------------
# per-run facade
# ---------------------------------------------------------------------------

@dataclass
class TelemetryConfig:
    """Tunables accepted via ``ExperimentConfig(telemetry_kwargs=...)``."""

    #: Register the 4 per-connection TCP gauges.  A single-transfer run
    #: has a handful of connections and wants them all; a serving run
    #: churns thousands of short flows through one stack and must turn
    #: this off (the aggregate stack/gateway gauges remain).
    per_connection: bool = True


class Telemetry:
    """Everything one instrumented run carries.

    Components never import this class; they duck-type against the
    ``register_*`` helpers (keeping :mod:`repro.sim` and
    :mod:`repro.net` import-independent of the metrics package) and
    treat a ``None`` telemetry reference as "disabled".
    """

    def __init__(self, sim, config: Optional[TelemetryConfig] = None):
        self.sim = sim
        self.config = config if config is not None else TelemetryConfig()
        self.registry = MetricsRegistry()
        self.sampler = TelemetrySampler(sim, self.registry)
        self.recorder = FlightRecorder()
        # Gauges registered per connection, so a pruned connection's
        # callbacks can be detached (the registry itself never drops
        # entries — the sampler's alignment depends on that).
        self._conn_gauges: Dict[int, List[Gauge]] = {}

    # -- component registration hooks -------------------------------------
    # Called by the runner and by instrumented components; each
    # registers pull gauges only, so the instrumented hot paths carry
    # no per-packet cost beyond their existing `is not None` guard.

    def register_link(self, link) -> None:
        """Queue depth and loss accounting of one simulated link, which
        keeps the two-event crossing the queue depth counts."""
        link.watch()
        name = link.name
        self.registry.gauge("link.queue_depth",
                            fn=lambda l=link: l._queued, link=name)
        stats = link.stats
        self.registry.gauge("link.packets_lost",
                            fn=lambda s=stats: s.packets_lost, link=name)
        self.registry.gauge("link.packets_offered",
                            fn=lambda s=stats: s.packets_offered, link=name)

    def register_connection(self, conn, label: str) -> None:
        """cwnd / ssthresh / RTO / in-flight of one TCP connection."""
        if not self.config.per_connection:
            return
        gauges = [
            self.registry.gauge("tcp.cwnd",
                                fn=lambda c=conn: c.cc.cwnd, conn=label),
            self.registry.gauge("tcp.ssthresh",
                                fn=lambda c=conn: min(c.cc.ssthresh, 1 << 30),
                                conn=label),
            self.registry.gauge("tcp.rto",
                                fn=lambda c=conn: c.rto.rto, conn=label),
            self.registry.gauge("tcp.inflight",
                                fn=lambda c=conn: c.flight_size, conn=label),
        ]
        self._conn_gauges[id(conn)] = gauges

    def unregister_connection(self, conn) -> None:
        """Detach a pruned connection's gauge callbacks.

        The gauge objects stay registered (series alignment), but stop
        holding the connection: they read nan from here on and the
        connection object becomes collectable.
        """
        for gauge in self._conn_gauges.pop(id(conn), ()):
            gauge.fn = None

    def register_gateway(self, gateway, role: str) -> None:
        """Cache occupancy/evictions and drop accounting of a gateway."""
        cache = gateway.cache
        self.registry.gauge("cache.entries",
                            fn=lambda c=cache: len(c.store), gw=role)
        self.registry.gauge("cache.bytes",
                            fn=lambda c=cache: c.store.bytes_used, gw=role)
        self.registry.gauge("cache.evictions",
                            fn=lambda c=cache: c.store.evictions, gw=role)
        self.registry.gauge("cache.epoch",
                            fn=lambda c=cache: c.epoch, gw=role)
        shard_entries = getattr(cache, "shard_entries", None)
        if shard_entries is not None:
            # Sharded serving cache: per-shard occupancy and eviction
            # gauges (duck-typed — only repro.core.shardcache has them).
            # Entries are routed from the one fingerprint table at
            # sample time; the N gauges of a sample share one routing.
            for index, shard in enumerate(cache.store.shards):
                self.registry.gauge(
                    "cache.shard_bytes",
                    fn=lambda s=shard: s.bytes_used,
                    gw=role, shard=index)
                self.registry.gauge(
                    "cache.shard_entries",
                    fn=lambda f=shard_entries, i=index: f()[i],
                    gw=role, shard=index)
                self.registry.gauge(
                    "cache.shard_evictions",
                    fn=lambda s=shard: s.evictions,
                    gw=role, shard=index)
        stats = gateway.stats
        self.registry.gauge("gw.undecodable_dropped",
                            fn=lambda s=stats: s.undecodable_dropped, gw=role)
        self.registry.gauge("gw.decoded_ok",
                            fn=lambda s=stats: s.decoded_ok, gw=role)
        self.registry.gauge("gw.data_packets",
                            fn=lambda s=stats: s.data_packets, gw=role)
        if gateway.resilience is not None:
            self._register_resilience(gateway, role)

    def _register_resilience(self, gateway, role: str) -> None:
        resilience = gateway.resilience
        stats = resilience.stats
        self.registry.gauge(
            "resilience.resyncing",
            fn=lambda r=resilience: float(getattr(r, "resyncing", False)),
            gw=role)
        self.registry.gauge(
            "resilience.degraded",
            fn=lambda s=stats: float(s.degraded), gw=role)
        self.registry.gauge(
            "resilience.watchdog_trips",
            fn=lambda s=stats: s.watchdog_trips, gw=role)
        self.registry.gauge(
            "resilience.resyncs_completed",
            fn=lambda s=stats: s.resyncs_completed, gw=role)

    def register_verifier(self, verifier) -> None:
        """Surface the verification oracles' progress as gauges.

        Registered by the runner when a run arms both ``telemetry`` and
        ``verify``: the two layers already share the flight recorder
        (oracle notes land next to the node events they explain), and
        this makes the oracle activity — regions judged, coherence scans
        performed, drops observed — visible in the sampled series and
        the telemetry/v1 export.
        """
        self.registry.gauge("verify.regions_checked",
                            fn=lambda v=verifier: v.regions_checked)
        self.registry.gauge("verify.coherence_checks",
                            fn=lambda v=verifier: v.coherence_checks)
        self.registry.gauge("verify.undecodable_seen",
                            fn=lambda v=verifier: v.undecodable_seen)
        self.registry.gauge("verify.stale_seen",
                            fn=lambda v=verifier: v.stale_seen)

    def register_dre_pair(self, encoder_gateway, decoder_gateway) -> None:
        """The running perceived-loss rate (Fig. 13's quantity, live)."""
        enc, dec = encoder_gateway.stats, decoder_gateway.stats

        def perceived() -> float:
            offered = enc.data_packets
            if offered == 0:
                return 0.0
            return max(0.0, 1.0 - dec.decoded_ok / offered)

        self.registry.gauge("dre.perceived_loss", fn=perceived)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.sampler.start()

    def export(self, reason: str = "completed",
               dump_flight_recorder: bool = True) -> Dict[str, Any]:
        """The ``telemetry/v1`` document for this run.

        ``reason`` records why the run ended (``completed``, ``stall``,
        ``watchdog``, ``time_limit``); the flight-recorder dump is
        included for the post-mortem reasons and elided on a clean
        completion unless explicitly requested.
        """
        # One final sample so the series reach the end of the run.
        self.sampler.sample_once()
        # The registry holds gauges only; the schema keeps its empty
        # counters and histograms sections (validate_telemetry).
        return {
            "schema": TELEMETRY_SCHEMA,
            "reason": reason,
            "sampler": self.sampler.export(),
            "counters": {},
            "final_gauges": self.registry.snapshot(),
            "histograms": {},
            "flight_recorder": (
                self.recorder.dump(DUMP_EVENTS)
                if dump_flight_recorder else []),
            "flight_recorder_events_seen": self.recorder.events_seen,
        }


def telemetry_if(enabled: bool, sim,
                 **kwargs: Any) -> Optional[Telemetry]:
    """``Telemetry`` when enabled, else ``None`` (the fast path).

    Mirrors :func:`repro.metrics.profiling.profiler_if`; ``kwargs`` are
    :class:`TelemetryConfig` fields.
    """
    if not enabled:
        return None
    return Telemetry(sim, TelemetryConfig(**kwargs))


def validate_telemetry(doc: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid telemetry/v1 export.

    Cheap structural validation used by tests and the CI smoke step.
    """
    if not isinstance(doc, dict):
        raise ValueError("telemetry export must be a dict")
    if doc.get("schema") != TELEMETRY_SCHEMA:
        raise ValueError(f"bad schema: {doc.get('schema')!r}")
    sampler = doc.get("sampler")
    if not isinstance(sampler, dict):
        raise ValueError("missing sampler section")
    times = sampler.get("times")
    series = sampler.get("series")
    if not isinstance(times, list) or not isinstance(series, dict):
        raise ValueError("sampler must carry times + series")
    for key, values in series.items():
        if len(values) != len(times):
            raise ValueError(
                f"series {key!r} misaligned: {len(values)} values "
                f"for {len(times)} times")
    for section in ("counters", "final_gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            raise ValueError(f"missing section {section!r}")
    if not isinstance(doc.get("flight_recorder"), list):
        raise ValueError("missing flight_recorder list")
