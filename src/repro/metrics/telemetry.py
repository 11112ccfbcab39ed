"""Unified run telemetry: metrics registry, sim-time sampler, flight recorder.

The paper's key effects are *trajectories*, not end-of-run scalars:
aggressive encoding inflates perceived loss over time until TCP's
window collapses and the RTO backs off exponentially (Fig. 6, Fig. 13).
:class:`~repro.metrics.collectors.TransferResult` only snapshots the
end state; this module records how a run got there.

Three cooperating pieces, modelled on what a production DRE middlebox
would ship with:

* :class:`MetricsRegistry` — label-aware gauges.  Gauges are
  *pull-based*: each registers through a source, a callable read at
  sample time, so instrumented hot paths pay nothing while the sampler
  is idle.
  Components accept an optional registry/telemetry reference and guard
  every use with one ``is not None`` check — the disabled path stays
  within the e2e harness's ``py_calls_per_op`` budget.
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
from typing import (Any, Callable, Dict, List, Optional,
                    Sequence, Set, Tuple)

from ..net.tcp.congestion import INITIAL_SSTHRESH

TELEMETRY_SCHEMA = "telemetry/v1"

#: Flight-recorder rows carried by a post-mortem export.
DUMP_EVENTS = 64

#: The detail of an event recorded without one (never written to).
_NO_DETAIL: Dict[str, Any] = {}


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical ``name{k=v,...}`` identity of one labelled metric."""
    if not labels:
        return name
    inner = ",".join([f"{k}={labels[k]}" for k in sorted(labels)])
    return f"{name}{{{inner}}}"


class Gauge:
    """A labelled instantaneous value, pulled at sample time.

    A gauge belongs to the :class:`Source` it was registered with
    (:meth:`MetricsRegistry.source`), which the sampler reads in one
    call; its own ``fn`` reads the one value back for :meth:`read`.
    """

    __slots__ = ("name", "labels", "key", "fn", "source")

    def __init__(self, name: str, labels: Dict[str, Any],
                 fn: Callable[[], float], source: "Source"):
        self.name = name
        self.labels = labels
        #: ``name{k=v,...}``, fixed for life, so built once.
        self.key = metric_key(name, labels)
        self.fn = fn
        self.source = source

    def read(self) -> float:
        try:
            return float(self.fn())
        # lint: disable=hygiene-swallowed-violation(gauge callbacks read counters and call no oracle; torn-down state must read nan)
        except Exception:
            return math.nan


class Source:
    """Gauges the sampler reads with one call per tick.

    ``fn`` returns one number per gauge, in ``keys`` order; ``None``
    (a torn-down component) reads nan for all of them, and so does a
    raising ``fn``.
    """

    __slots__ = ("fn", "keys", "nans")

    def __init__(self, fn: Optional[Callable[[], Sequence[float]]],
                 keys: Tuple[str, ...]):
        self.fn = fn
        self.keys = keys
        self.nans = (math.nan,) * len(keys)


class MetricsRegistry:
    """Label-aware registry of gauges.

    Every gauge is registered and read through one :class:`Source` of
    :attr:`sources`, and a source's gauges sit next to each other in
    registration order, so one sample is one row in that order.
    """

    def __init__(self) -> None:
        self._gauges: "OrderedDict[str, Gauge]" = OrderedDict()
        #: What the sampler calls each tick, in registration order.
        self.sources: List[Source] = []

    # -- registration ------------------------------------------------------

    def source(self, fn: Callable[[], Sequence[float]],
               gauges: Sequence[Tuple[str, Dict[str, Any]]]) -> Source:
        """Register ``gauges`` (``(name, labels)`` pairs) read together:
        ``fn()`` returns one number per gauge, in that order.

        Registering the same gauges again hands the source the new
        ``fn`` (a reopened connection under the same label); a source
        may not take over gauges another source registered.
        """
        keys = tuple(metric_key(name, labels) for name, labels in gauges)
        known = self._gauges.get(keys[0])
        if known is not None and known.source.keys == keys:
            known.source.fn = fn
            return known.source
        taken = [key for key in keys if key in self._gauges]
        if taken:
            raise ValueError(f"gauges already registered: {taken}")
        source = Source(fn, keys)
        for index, (name, labels) in enumerate(gauges):
            gauge = Gauge(name, labels,
                          lambda s=source, i=index: s.fn()[i], source)
            self._gauges[gauge.key] = gauge
        self.sources.append(source)
        return source

    # -- introspection -----------------------------------------------------

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

    A tick calls each registry source once and stores one row — the
    time, then every value in registration order; :meth:`series` and
    :meth:`export` turn the rows into columns.
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
        self._rows: List[List[Any]] = []
        # The newest row, kept through decimation: its width is the
        # number of gauges the series carry.
        self._last: Optional[List[Any]] = None
        self.decimations = 0
        self._started = False

    @property
    def times(self) -> List[float]:
        """The shared time axis of every stored sample."""
        return [row[0] for row in self._rows]

    def start(self) -> None:
        """Take the t=0 sample and begin ticking."""
        if self._started:
            return
        self._started = True
        self._tick()

    def sample_once(self) -> None:
        """Record one aligned sample of every gauge right now."""
        row: List[Any] = [self.sim.now]
        # The registry's live list: a source registered since the last
        # tick is read from this one on.
        for source in self.registry.sources:
            # ``fn`` is read per tick: unregister_connection clears it
            # and re-registration replaces it.
            fn = source.fn
            if fn is None:
                row += source.nans
                continue
            try:
                row += fn()
            # lint: disable=hygiene-swallowed-violation(gauge callbacks read counters and call no oracle; torn-down state must read nan)
            except Exception:
                row += source.nans
        rows = self._rows
        rows.append(row)
        self._last = row
        if len(rows) >= self.max_samples:
            self._decimate()

    def series(self) -> Dict[str, List[float]]:
        """key -> aligned value list (same length as :attr:`times`)."""
        return {key: list(map(float, column))
                for key, column in self._columns().items()}

    def latest(self) -> Dict[str, Optional[float]]:
        """The newest sample of every gauge, nan/inf as null."""
        last = self._last
        if last is None:
            return {}
        inf = math.inf
        return {key: v if -inf < v < inf else None
                for key, v in zip(self.registry._gauges,
                                  map(float, last[1:]))}

    # -- internal ----------------------------------------------------------

    def _columns(self) -> Dict[str, Tuple[Any, ...]]:
        """key -> the raw stored values; rows taken before a gauge was
        registered are nan-padded up to the newest row's width."""
        last = self._last
        if last is None:
            return {}
        width = len(last)
        pad = [math.nan] * width
        rows = [row if len(row) == width else row + pad[len(row):]
                for row in self._rows]
        columns = list(zip(*rows))[1:]
        return dict(zip(self.registry._gauges, columns))

    def _tick(self) -> None:
        self.sample_once()
        self.sim.post_after(self.interval, self._tick)

    def _decimate(self) -> None:
        self.decimations += 1
        self.interval *= 2.0
        del self._rows[1::2]

    def export(self) -> Dict[str, Any]:
        return {
            "interval": self.interval,
            "initial_interval": self.initial_interval,
            "decimations": self.decimations,
            "times": self.times,
            # Stored values are numbers; nan and +-inf fail the range
            # test and export as null (see _json_number).
            "series": {key: [v if -math.inf < v < math.inf else None
                             for v in map(float, column)]
                       for key, column in self._columns().items()},
        }


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

class FlightRecorder:
    """Bounded ring of recent events, grouped per flow.

    Events arrive through :meth:`record`, from the nodes and gateways
    the runner attached it to (:meth:`repro.sim.node.Node.note`) and
    from the verification harness.
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
        # An event keeps the span's row; :meth:`dump` turns it into ids.
        self.spans = None

    def record(self, time: float, source: str, event: str,
               detail: Optional[Dict[str, Any]] = None) -> None:
        """Append one event to its flow's ring.

        ``detail`` belongs to the caller and is stored as given, so a
        set value (an encode's dependencies) is sorted only by
        :meth:`dump`, and the trace/span ids ride beside it in the ring
        and are merged only into :meth:`dump`'s copy.
        """
        if detail is None:
            detail = _NO_DETAIL
        spans = self.spans
        row = None
        if spans is not None and "trace" not in detail:
            # The packet's latest span, else the active context (what
            # current_ids would name), read from the recorder's own
            # tables without a method call.
            packet_rows = spans.packet_rows
            packet_id = detail["packet_id"] if "packet_id" in detail else None
            if packet_id in packet_rows:
                row = packet_rows[packet_id]
            elif spans.context:
                row = spans.context[-1]
        key = detail["flow"] if "flow" in detail else source
        rings = self._rings
        ring = rings[key] if key in rings else self._new_ring(key)
        self.events_seen += 1
        self._seq += 1
        ring.append((time, self._seq, source, event, detail, spans, row))

    def _new_ring(self, key: Any) -> deque:
        if len(self._rings) >= self.max_flows:
            return self._overflow
        ring: deque = deque(maxlen=self.ring_size)
        self._rings[key] = ring
        return ring

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
        for time, _seq, source, event, detail, spans, row in merged:
            detail = {key: sorted(value) if isinstance(value, set) else value
                      for key, value in detail.items()}
            if row is not None:
                detail["trace"], detail["span"] = spans.span_ids(row)
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
        # The source and label registered per connection, so a pruned
        # connection's callback can be detached and its label handed on
        # (the registry itself never drops entries — the sampler's
        # alignment depends on it).
        self._conn_sources: Dict[int, Tuple[Source, str]] = {}
        #: Labels whose series a registered connection reads.
        self._live_labels: Set[str] = set()

    # -- component registration hooks -------------------------------------
    # Called by the runner and by instrumented components.  Each
    # registers one source, which the sampler reads in one call per
    # tick.  Nothing here adds per-packet work.

    def register_link(self, link) -> None:
        """Queue depth and loss accounting of one simulated link, as
        ``Link.settled`` reads them at the tick."""
        name = {"link": link.name}
        stats = link.stats
        self.registry.source(
            lambda l=link, s=stats: (*l.settled(), s.packets_offered),
            [("link.queue_depth", name), ("link.packets_lost", name),
             ("link.packets_offered", name)])

    def register_connection(self, conn, label: str) -> None:
        """cwnd / ssthresh / RTO / in-flight of one TCP connection.

        Each live connection reads its own series.  A server accepts
        every fetch on one port, so a connection whose label a live one
        holds is registered as ``label#2`` (then ``#3``, ...); a pruned
        connection's label passes to the next one that asks for it.
        """
        if not self.config.per_connection:
            return
        base, suffix = label, 1
        while label in self._live_labels:
            suffix += 1
            label = f"{base}#{suffix}"
        self._live_labels.add(label)
        conn_label = {"conn": label}

        def read(c=conn) -> Tuple[Any, ...]:
            cc = c.cc
            ssthresh = cc.ssthresh
            # min(ssthresh, INITIAL_SSTHRESH) without the call: an
            # unset (infinite) threshold reads as the initial one.
            return (cc.cwnd,
                    INITIAL_SSTHRESH if INITIAL_SSTHRESH < ssthresh
                    else ssthresh,
                    c.rto.rto, c.flight_size)

        source = self.registry.source(
            read, [("tcp.cwnd", conn_label), ("tcp.ssthresh", conn_label),
                   ("tcp.rto", conn_label), ("tcp.inflight", conn_label)])
        self._conn_sources[id(conn)] = (source, label)

    def unregister_connection(self, conn) -> None:
        """Detach a pruned connection's gauge callback.

        The gauges stay registered (series alignment), but stop
        holding the connection: they read nan from here on, until a
        later connection takes the label over, and the connection
        object becomes collectable.
        """
        entry = self._conn_sources.pop(id(conn), None)
        if entry is not None:
            source, label = entry
            source.fn = None
            self._live_labels.discard(label)

    def register_gateway(self, gateway, role: str) -> None:
        """Cache occupancy/evictions and drop accounting of a gateway,
        and its resilience state when it runs the resilience layer."""
        cache = gateway.cache
        stats = gateway.stats
        gw = {"gw": role}
        gauges = [("cache.entries", gw), ("cache.bytes", gw),
                  ("cache.evictions", gw), ("cache.epoch", gw)]
        shard_entries = getattr(cache, "shard_entries", None)
        shards: List[Any] = []
        if shard_entries is not None:
            # Sharded serving cache: per-shard occupancy and eviction
            # gauges (duck-typed — only repro.core.shardcache has them).
            # Entries are routed from the one fingerprint table once
            # per sample.
            shards = list(cache.store.shards)
            for index in range(len(shards)):
                shard = {"gw": role, "shard": index}
                gauges += [("cache.shard_bytes", shard),
                           ("cache.shard_entries", shard),
                           ("cache.shard_evictions", shard)]
        gauges += [("gw.undecodable_dropped", gw), ("gw.decoded_ok", gw),
                   ("gw.data_packets", gw)]
        resilience = gateway.resilience
        if resilience is not None:
            gauges += [("resilience.resyncing", gw),
                       ("resilience.degraded", gw),
                       ("resilience.watchdog_trips", gw),
                       ("resilience.resyncs_completed", gw)]

        def read() -> Tuple[Any, ...]:
            store = cache.store
            # ``records`` holds exactly the stored ids (one dict across
            # the shards of a sharded store): len(store) without the
            # Python-level __len__.
            values: Tuple[Any, ...] = (len(store.records), store.bytes_used,
                                       store.evictions, cache.epoch)
            if shards:
                entries = shard_entries()
                for index, shard in enumerate(shards):
                    values += (shard.bytes_used, entries[index],
                               shard.evictions)
            values += (stats.undecodable_dropped, stats.decoded_ok,
                       stats.data_packets)
            if resilience is not None:
                res_stats = resilience.stats
                values += (getattr(resilience, "resyncing", False),
                           res_stats.degraded, res_stats.watchdog_trips,
                           res_stats.resyncs_completed)
            return values

        self.registry.source(read, gauges)

    def register_verifier(self, verifier) -> None:
        """Surface the verification oracles' progress as gauges.

        Registered by the runner when a run arms both ``telemetry`` and
        ``verify``: the two layers already share the flight recorder
        (oracle notes land next to the node events they explain), and
        this makes the oracle activity — regions judged, coherence scans
        performed, drops observed — visible in the sampled series and
        the telemetry/v1 export.
        """
        self.registry.source(
            lambda v=verifier: (v.regions_checked, v.coherence_checks,
                                v.undecodable_seen, v.stale_seen),
            [("verify.regions_checked", {}), ("verify.coherence_checks", {}),
             ("verify.undecodable_seen", {}), ("verify.stale_seen", {})])

    def register_dre_pair(self, encoder_gateway, decoder_gateway) -> None:
        """The running perceived-loss rate (Fig. 13's quantity, live)."""
        enc, dec = encoder_gateway.stats, decoder_gateway.stats

        def perceived() -> Tuple[float]:
            offered = enc.data_packets
            if offered == 0:
                return (0.0,)
            loss = 1.0 - dec.decoded_ok / offered
            return (loss if loss > 0.0 else 0.0,)   # max(0.0, loss)

        self.registry.source(perceived, [("dre.perceived_loss", {})])

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
            # The sample just taken: what registry.snapshot() would read.
            "final_gauges": self.sampler.latest(),
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
