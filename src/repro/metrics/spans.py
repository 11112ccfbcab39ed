"""Causal span tracing: walk a receiver-side stall back to its cause.

The telemetry layer (PR 3) answers *how much* — gauges, counters,
flight-recorder rings.  This layer answers *why this packet*: every
sampled data packet gets a **trace**, and every causal unit it passes
through — gateway encode (with table-probe / region-expand / wire-pack
stage children), link transit, gateway decode/reconstruct — gets a
**span** inside that trace, parented to the span that caused it.
Control-plane units (resync handshakes, watchdog trips, TCP
retransmissions) get traces of their own, connected to the data-plane
traces through cross-trace ``links``:

* ``encoded_against`` — an encode span links to the trace of each
  cache entry the encoder referenced (the paper's causal arrow: a
  region match *here* creates a decode dependency *there*);
* ``retransmission_of`` — a TCP retransmit event links back to the
  trace of the packet that first carried this sequence number;
* ``caused_by_retransmit`` — the re-encoded packet's trace links back
  to the retransmit decision that spawned it.

Together these make the §IV-B livelock mechanically walkable: decode
drops MISSING → same-trace encode span → ``encoded_against`` → the
dependency's trace ends in a lost link transit — and its root carries
the *same* TCP sequence number, i.e. the retransmission was encoded
against a stale copy of itself (see :func:`format_chain`).

Contract (same as PR 3 telemetry): producers hold a duck-typed
``spans`` attribute, ``None`` by default; the disabled path costs one
attribute load and an ``is not None`` check.  ``trace_sample=N``
samples every Nth *flow* (control-plane units are always sampled) so
the layer scales to multiflow runs.  Wall-clock self-times come from
``perf_counter`` — permitted by the determinism lint because they feed
profiling output, never simulation results; simulation timestamps come
from the injected ``sim`` clock and stay deterministic.

Record flat, render at export: a span is one row of scalars in an
append-only log and the handle a site holds is the row's index.  Sites
pass tag *values* positionally; the names live in :data:`SPAN_KINDS`
and the ``spans/v1`` dicts are built once, in :meth:`SpanRecorder.export`.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

SPANS_SCHEMA = "spans/v1"

#: Recorder methods that allocate a span.  The architecture lint's
#: hotpath family forbids calling any of these inside an inner batch
#: loop of a registered hot function (see analysis/rules/hotpath.py).
SPAN_CREATION_METHODS = frozenset([
    "open", "event", "child_event", "stage", "encode_stages",
    "packet_begin", "packet_event", "link_begin", "note_retransmit",
])

_PACKET_EVENT = ("packet",)
_FAULT_EVENT = ("packet", "fault")

#: The span vocabulary: kind (the exported ``name``) -> the names of the
#: tag values sites pass positionally.  Slots 0-2 are filled when a span
#: opens and slots 3-5 when it closes; ``None`` marks a slot the kind
#: does not use, and a ``None`` value means the tag is absent.  A kind
#: outside the table carries no tags.  DESIGN.md §14 lists which site
#: emits each kind.
SPAN_KINDS: Dict[str, Tuple[Optional[str], ...]] = {
    # Open/close pairs: a child can appear, or the span outlives an event.
    "encode": ("packet", "flow", "seq", "encoded", "bytes_in", "bytes_out"),
    "decode": ("packet", "flow", "seq", "status", "missing"),
    "link_transit": ("packet", "bytes", None, "outcome", "reason"),
    "resync": ("resync_id", None, None, "outcome", "epoch", "retries"),
    # One-shot codec stages, emitted after the work (SpanRecorder.stage;
    # the encoder's three through SpanRecorder.encode_stages).
    "table_probe": (),
    "region_expand": ("regions", "dependencies"),
    "wire_pack": ("bytes_out",),
    "reconstruct": ("regions", "bytes_out", "outcome"),
    # Zero-duration events.
    "queue_drop": _PACKET_EVENT,
    "drop_gateway_down": _PACKET_EVENT,
    "fault_drop": _FAULT_EVENT,
    "fault_corrupt": _FAULT_EVENT,
    "fault_delay": _FAULT_EVENT,
    "fault_reorder": _FAULT_EVENT,
    "fault_duplicate": _FAULT_EVENT,
    "tcp_retransmit": ("flow", "seq", "length"),
    "resync_retry": ("attempt", "delay"),
    "resync_served": ("resync_id", "epoch"),
    "watchdog_trip": ("undecodable", "window"),
    "degraded_enter": ("last_ack_age",),
    "degraded_recover": ("epoch",),
}

# One span = _STRIDE consecutive scalar slots of the log: eight header
# slots, then three opening and three closing tag values.  No object is
# allocated per span, so recording adds no work for the cyclic
# collector.  Span ids are not stored: rows are appended in id order,
# so id == row // _STRIDE + 1.  _WALL holds the perf_counter reading at
# open until the span closes (a link_transit row holds 0.0 throughout).
(_TRACE, _PARENT, _KIND, _SOURCE, _START, _END, _WALL, _FAULTS,
 _TAG0) = range(9)
_CLOSE = _TAG0 + 3
_STRIDE = _TAG0 + 6

# The export's per-kind tag layout, resolved once here instead of per
# row: one name (or None) per tag slot, and whether a ``flow`` tag is
# listed.  A kind outside the table names no slot.
_UNNAMED: Tuple[Optional[str], ...] = (None,) * (_STRIDE - _TAG0)
_LAYOUTS: Dict[str, Tuple[Tuple[Optional[str], ...], bool]] = {
    kind: ((names + _UNNAMED)[:len(_UNNAMED)], "flow" in names)
    for kind, names in SPAN_KINDS.items()}
_NO_LAYOUT = (_UNNAMED, False)


class _Epoch:
    """Clock of a recorder built without a simulator: always 0.0."""

    now = 0.0


class SpanRecorder:
    """Collects spans for sampled flows; bounded, append-only.

    Creation methods return a handle (an ``int``; 0 is a valid one) or
    ``None`` for packets whose flow was not sampled or once
    ``max_spans`` is reached — call sites never need to distinguish the
    cases, they just pass the handle back to :meth:`end`.  Tag values
    are positional (``a``, ``b``, ``c``); :data:`SPAN_KINDS` names them.
    """

    def __init__(self, sim: Any = None, trace_sample: int = 1,
                 max_spans: int = 50_000) -> None:
        self._clock = sim if sim is not None else _Epoch
        self.trace_sample = max(1, int(trace_sample))
        self.max_spans = int(max_spans)
        self.traces = 0
        self.dropped = 0
        self._log: List[Any] = []
        self._next = 0
        self._limit = self.max_spans * _STRIDE
        # What only a few rows have, keyed by row: the span a retransmit
        # decision or a re-encoded packet links to, the spans an encode
        # was encoded against, and flags set while in transit.
        self._cause: Dict[int, int] = {}
        self._deps: Dict[int, List[Optional[int]]] = {}
        self._notes: Dict[int, List[str]] = {}
        #: Synchronous context stack: packet_begin/begin push, end
        #: pops.  Stage sub-spans attach to the top, so the core codec
        #: never needs to know trace ids.
        self.context: List[int] = []
        #: packet_id -> row of the most recent span in that packet's
        #: trace; how a trace id crosses the gateway -> link -> gateway
        #: boundary without touching the packet objects.  The flight
        #: recorder reads this table and :attr:`context` directly.
        self.packet_rows: Dict[int, int] = {}
        self._open_links: Dict[int, int] = {}
        self._flow_sampled: Dict[Any, bool] = {}
        self._flow_seen = 0
        # (flow, seq) -> first span that carried this segment / the
        # pending retransmit decision for it.
        self._seq_origin: Dict[Any, int] = {}
        self._retx: Dict[Any, int] = {}
        self._faults: List[str] = []
        #: Snapshot of the open fault windows every new row points at.
        self._fault_tags: Optional[Tuple[str, ...]] = None

    def sampled(self, flow: Any) -> bool:
        """Deterministic per-flow sampling: every Nth new flow."""
        if flow is None:
            return True
        hit = self._flow_sampled.get(flow)
        if hit is None:
            hit = (self._flow_seen % self.trace_sample) == 0
            self._flow_seen += 1
            self._flow_sampled[flow] = hit
        return hit

    def _append(self, parent: Optional[int], kind: str, source: str,
                closed: bool, a: Any = None, b: Any = None,
                c: Any = None) -> Optional[int]:
        """Append one row off the per-packet path; ``parent=None`` roots
        a new trace, ``closed`` makes it a zero-duration event."""
        row = self._next
        if row >= self._limit:
            self.dropped += 1
            return None
        self._next = row + _STRIDE
        log = self._log
        if parent is None:
            self.traces += 1
            trace = self.traces
        else:
            trace = log[parent]
        now = self._clock.now
        if closed:
            log += (trace, parent, kind, source, now, now, 0.0,
                    self._fault_tags, a, b, c, None, None, None)
        else:
            log += (trace, parent, kind, source, now, None, perf_counter(),
                    self._fault_tags, a, b, c, None, None, None)
        return row

    # -- closing a span, and one-shot stages -------------------------------

    def end(self, row: Optional[int], a: Any = None, b: Any = None,
            c: Any = None) -> None:
        """Close a span, filling its closing tags.

        Unwinds the context stack down to and including ``row``, so a
        span closed out of order (or after a child was abandoned by an
        exception) never leaves a dead context behind.
        """
        if row is None:
            return
        log = self._log
        log[row + _END] = self._clock.now
        log[row + _WALL] = perf_counter() - log[row + _WALL]
        log[row + _CLOSE:row + _STRIDE] = (a, b, c)
        stack = self.context
        if stack:
            if stack[-1] == row:
                stack.pop()
            elif row in stack:
                del stack[stack.index(row):]

    def stage(self, kind: str, source: str, wall: float, a: Any = None,
              b: Any = None, c: Any = None) -> None:
        """One-shot leaf span under the active context, emitted *after*
        the work with the ``wall`` seconds the site measured.

        A stage begins and ends inside one simulator event, so
        ``start == end == now``; it takes the id it would have taken at
        its begin because nothing allocates a span while it runs.  With
        no enclosing packet span (flow unsampled, or the core driven
        directly by a benchmark) it records nothing rather than minting
        orphan traces per packet.
        """
        stack = self.context
        if not stack:
            return
        row = self._next
        if row >= self._limit:
            self.dropped += 1
            return
        self._next = row + _STRIDE
        parent = stack[-1]
        log = self._log
        now = self._clock.now
        log += (log[parent], parent, kind, source, now, now, wall,
                self._fault_tags, a, b, c, None, None, None)

    def encode_stages(self, source: str, probe: Optional[float],
                      expand: Optional[float], pack: float, regions: int,
                      dependencies: int, bytes_out: int) -> None:
        """The encoder's three stage spans in one call, emitted after
        wire packing: ``table_probe`` and ``region_expand`` (with its
        ``regions`` / ``dependencies`` counts) when ``probe`` is a wall
        time, then ``wire_pack`` (``bytes_out``).

        Rows, ids and the ``max_spans`` bound come out as three
        :meth:`stage` calls would leave them: nothing else allocates a
        span while the encoder runs.
        """
        stack = self.context
        if not stack:
            return
        parent = stack[-1]
        log = self._log
        trace = log[parent]
        now = self._clock.now
        faults = self._fault_tags
        if probe is None:
            rows: Tuple[Any, ...] = (
                trace, parent, "wire_pack", source, now, now, pack, faults,
                bytes_out, None, None, None, None, None)
            size = _STRIDE
        else:
            rows = (trace, parent, "table_probe", source, now, now, probe,
                    faults, None, None, None, None, None, None,
                    trace, parent, "region_expand", source, now, now, expand,
                    faults, regions, dependencies, None, None, None, None,
                    trace, parent, "wire_pack", source, now, now, pack, faults,
                    bytes_out, None, None, None, None, None)
            size = 3 * _STRIDE
        row = self._next
        if row + size > self._limit:
            # The bound falls inside the batch: keep the stages that fit.
            fit = self._limit - row
            self.dropped += (size - fit) // _STRIDE
            rows = rows[:fit]
            size = fit
        self._next = row + size
        log += rows

    # -- asynchronous scopes (multi-event units, e.g. a resync) ------------

    def open(self, kind: str, source: str, a: Any = None) -> Optional[int]:
        """Open a root span that stays live across simulator events.

        Not pushed on the context stack; the caller holds the handle
        and closes it with :meth:`end` when the unit completes.
        """
        return self._append(None, kind, source, False, a)

    def event(self, kind: str, source: str, a: Any = None,
              b: Any = None) -> Optional[int]:
        """Zero-duration span: child of the active context, else a root."""
        stack = self.context
        return self._append(stack[-1] if stack else None, kind, source,
                            True, a, b)

    def child_event(self, parent: Optional[int], kind: str, source: str,
                    a: Any = None, b: Any = None) -> Optional[int]:
        """Zero-duration span under an explicitly held parent."""
        if parent is None:
            return None
        return self._append(parent, kind, source, True, a, b)

    # -- packet plumbing (trace propagation across hops) -------------------

    def packet_begin(self, kind: str, source: str, packet_id: int,
                     flow: Any = None, seq: Optional[int] = None
                     ) -> Optional[int]:
        """Open a packet-scoped span and push it as the context.

        Continues the packet's existing trace when one is known (the
        decode side of a hop), else roots a new trace subject to flow
        sampling.  A fresh root inherits any pending retransmit
        decision for (flow, seq) as a ``caused_by_retransmit`` link.
        Closed with :meth:`end`.
        """
        parent = self.packet_rows.get(packet_id)
        if parent is None and not self.sampled(flow):
            return None
        row = self._next
        if row >= self._limit:
            self.dropped += 1
            return None
        self._next = row + _STRIDE
        log = self._log
        if parent is None:
            self.traces += 1
            trace = self.traces
        else:
            trace = log[parent]
        log += (trace, parent, kind, source, self._clock.now, None,
                perf_counter(), self._fault_tags, packet_id, flow, seq,
                None, None, None)
        if seq is not None:
            key = (flow, seq)
            if key not in self._seq_origin:
                self._seq_origin[key] = row
            if self._retx:
                retx = self._retx.pop(key, None)
                if retx is not None:
                    self._cause[row] = retx
        self.packet_rows[packet_id] = row
        self.context.append(row)
        return row

    def packet_event(self, kind: str, source: str, packet_id: int,
                     a: Any = None) -> Optional[int]:
        """Zero-duration span appended to a packet's trace (if traced)."""
        parent = self.packet_rows.get(packet_id)
        if parent is None:
            return None
        return self._append(parent, kind, source, True, packet_id, a)

    def link_deps(self, row: Optional[int],
                  dep_packet_ids: Iterable[int]) -> None:
        """Record ``encoded_against`` links to the dependencies' traces.

        Each dependency resolves *now* to the latest span of its trace;
        untraced ones resolve to ``None`` and are dropped at export.
        """
        if row is not None:
            self._deps.setdefault(row, []).extend(
                map(self.packet_rows.get, dep_packet_ids))

    # -- link transit ------------------------------------------------------

    def link_begin(self, source: str, packet_id: int,
                   size: int) -> Optional[int]:
        """Open a transit span when a traced packet enters a link.

        Its ``wall`` stays 0.0: the host time between offer and delivery
        is spent on other events, which have their own spans.
        """
        parent = self.packet_rows.get(packet_id)
        if parent is None:
            return None
        row = self._next
        if row >= self._limit:
            self.dropped += 1
            return None
        self._next = row + _STRIDE
        log = self._log
        log += (log[parent], parent, "link_transit", source, self._clock.now,
                None, 0.0, self._fault_tags, packet_id, size,
                None, None, None, None)
        self._open_links[packet_id] = row
        self.packet_rows[packet_id] = row
        return row

    def link_annotate(self, packet_id: int, tag: str) -> None:
        """Flag the packet's open transit span (corrupted / reordered)."""
        row = self._open_links.get(packet_id)
        if row is not None:
            self._notes.setdefault(row, []).append(tag)

    def link_end(self, packet_id: int, outcome: str,
                 reason: Optional[str] = None,
                 end: Optional[float] = None) -> None:
        """Close the packet's open transit span with an outcome tag, at
        ``end`` (simulated time) or now."""
        row = self._open_links.pop(packet_id, None)
        if row is not None:
            log = self._log
            log[row + _END] = self._clock.now if end is None else end
            log[row + _CLOSE] = outcome
            log[row + _CLOSE + 1] = reason

    # -- control plane -----------------------------------------------------

    def note_retransmit(self, source: str, flow: Any, seq: int,
                        length: int) -> Optional[int]:
        """Record a TCP retransmit decision as its own small trace.

        Links back to the first traced packet that carried this
        (flow, seq) (``retransmission_of``); the next encode of the same
        (flow, seq) links forward to this span, closing the causal
        chain stall -> retransmit -> re-encode.
        """
        if not self.sampled(flow):
            return None
        row = self._append(None, "tcp_retransmit", source, True, flow, seq,
                           length)
        if row is not None:
            key = (flow, seq)
            origin = self._seq_origin.get(key)
            if origin is not None:
                self._cause[row] = origin
            self._retx[key] = row
        return row

    def fault_begin(self, name: str) -> None:
        """Mark an injected-fault window: spans created while any
        window is active carry a ``faults`` tag."""
        self._faults.append(name)
        self._fault_tags = tuple(self._faults)

    def fault_end(self, name: str) -> None:
        try:
            self._faults.remove(name)
        except ValueError:
            return
        self._fault_tags = tuple(self._faults) or None

    # -- introspection -----------------------------------------------------

    def current_ids(self) -> Tuple[Optional[int], Optional[int]]:
        """(trace_id, span_id) of the active context, or (None, None)."""
        stack = self.context
        if not stack:
            return (None, None)
        row = stack[-1]
        return (self._log[row], row // _STRIDE + 1)

    def span_ids(self, row: int) -> Tuple[int, int]:
        """(trace_id, span_id) of the span at ``row`` (a handle)."""
        return (self._log[row], row // _STRIDE + 1)

    # -- export ------------------------------------------------------------

    def _render(self, first: int, stop: int) -> List[Dict[str, Any]]:
        """Rows ``first`` (a handle) up to ``stop`` as ``spans/v1`` dicts.

        The one place tag names, ``list(flow)`` and link dicts are
        built.  It runs over every row of the log, so the loop makes no
        call per row: tags follow the kind's precomputed layout, and a
        span's links are built inline (sorted only when it has more
        than one dependency).
        """
        log = self._log
        layouts = _LAYOUTS
        cause = self._cause
        deps = self._deps
        notes = self._notes
        out: List[Dict[str, Any]] = [{}] * ((stop - first) // _STRIDE)
        index = 0
        for row in range(first, stop, _STRIDE):
            (trace, parent, kind, source, start, end, wall, faults,
             a, b, c, d, e, f) = log[row:row + _STRIDE]
            tags: Dict[Any, Any] = {"faults": list(faults)} if faults else {}
            names, has_flow = (layouts[kind] if kind in layouts
                               else _NO_LAYOUT)
            if a is not None:
                tags[names[0]] = a
            if b is not None:
                tags[names[1]] = b
            if c is not None:
                tags[names[2]] = c
            if d is not None:
                tags[names[3]] = d
            if e is not None:
                tags[names[4]] = e
            if f is not None:
                tags[names[5]] = f
            if None in tags:
                raise ValueError(f"span kind {kind!r} names no tag for "
                                 f"one of {(a, b, c, d, e, f)}: {names}")
            if has_flow and "flow" in tags:
                tags["flow"] = list(tags["flow"])
            if row in notes:
                for flag in notes[row]:
                    tags[flag] = True
            doc: Dict[str, Any] = {
                "trace": trace,
                "span": row // _STRIDE + 1,
                "parent": None if parent is None else parent // _STRIDE + 1,
                "name": kind,
                "source": source,
                "start": start,
                "end": end,
                "wall": wall if end is not None else 0.0,
                "tags": tags,
            }
            if row in cause or row in deps:
                links: List[Dict[str, Any]] = []
                if row in cause:
                    target = cause[row]
                    links += ({"ref": ("retransmission_of"
                                       if kind == "tcp_retransmit"
                                       else "caused_by_retransmit"),
                               "trace": log[target],
                               "span": target // _STRIDE + 1},)
                if row in deps:
                    # Dependencies arrive as a set of process-global
                    # packet ids; order by trace so the export replays
                    # bit-identically.  The first tag of a packet's span
                    # is always its packet id.
                    targets: List[Tuple[int, int]] = []
                    for dep in deps[row]:
                        if dep is not None:   # untraced dependency
                            targets += ((log[dep], dep),)
                    if targets[1:]:
                        targets.sort()
                    for dep_trace, dep in targets:
                        links += ({"ref": "encoded_against",
                                   "trace": dep_trace,
                                   "span": dep // _STRIDE + 1,
                                   "packet": log[dep + _TAG0]},)
                if links:  # every dependency may have been untraced
                    doc["links"] = links
            out[index] = doc
            index += 1
        return out

    def export(self) -> Dict[str, Any]:
        """The full spans/v1 document (JSON-shaped, schema-stamped)."""
        # The document is acyclic and built in one burst of ~3 containers
        # per span: pausing the cyclic collector while it is built saves
        # a dozen young-generation passes that could free nothing.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            spans = self._render(0, self._next)
        finally:
            if was_enabled:
                gc.enable()
        return {
            "schema": SPANS_SCHEMA,
            "trace_sample": self.trace_sample,
            "summary": {
                "spans": len(spans),
                "traces": self.traces,
                "dropped": self.dropped,
                "open": sum(1 for span in spans if span["end"] is None),
            },
            "spans": spans,
        }


def spans_if(enabled: bool, sim: Any = None,
             **kwargs: Any) -> Optional[SpanRecorder]:
    """``SpanRecorder`` when enabled, else ``None`` — the single
    None-check contract (mirrors ``profiler_if`` / ``telemetry_if``)."""
    if not enabled:
        return None
    return SpanRecorder(sim=sim, **kwargs)


# -- validation ------------------------------------------------------------

_REQUIRED_SPAN_KEYS = ("trace", "span", "parent", "name", "source",
                       "start", "end", "wall", "tags")


def validate_spans(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Structural validation of a spans/v1 export; raises ValueError."""
    if not isinstance(doc, dict) or doc.get("schema") != SPANS_SCHEMA:
        raise ValueError(f"not a {SPANS_SCHEMA} document: "
                         f"schema={doc.get('schema')!r}")
    summary = doc.get("summary")
    spans = doc.get("spans")
    if not isinstance(summary, dict) or not isinstance(spans, list):
        raise ValueError("missing summary/spans sections")
    if summary.get("spans") != len(spans):
        raise ValueError(f"summary.spans={summary.get('spans')} but "
                         f"{len(spans)} spans present")
    seen: set = set()
    traces: set = set()
    for i, span in enumerate(spans):
        for key in _REQUIRED_SPAN_KEYS:
            if key not in span:
                raise ValueError(f"span[{i}] missing key {key!r}")
        if not isinstance(span["trace"], int) or not isinstance(span["span"], int):
            raise ValueError(f"span[{i}] ids must be ints")
        ident = (span["trace"], span["span"])
        if ident in seen:
            raise ValueError(f"span[{i}] duplicate id {ident}")
        parent = span["parent"]
        if parent is not None and (span["trace"], parent) not in seen:
            raise ValueError(f"span[{i}] parent {parent} not defined "
                             f"earlier in trace {span['trace']}")
        if not isinstance(span["tags"], dict):
            raise ValueError(f"span[{i}] tags must be a dict")
        for link in span.get("links", []):
            if not {"ref", "trace", "span"} <= set(link):
                raise ValueError(f"span[{i}] malformed link: {link}")
        seen.add(ident)
        traces.add(span["trace"])
    declared = summary.get("traces")
    if not isinstance(declared, int) or declared < len(traces):
        raise ValueError(f"summary.traces={declared} < {len(traces)} "
                         "distinct trace ids present")
    return doc


def spans_rollup(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Compact, deterministic per-run rollup for sweep/chaos records.

    Deliberately excludes wall-clock figures so sweep cells and chaos
    replays stay bit-identical across hosts.
    """
    by_name: Dict[str, Dict[str, Any]] = {}
    for span in doc["spans"]:
        entry = by_name.setdefault(span["name"], {"count": 0, "sim_time": 0.0})
        entry["count"] += 1
        end = span["end"]
        if end is not None:
            entry["sim_time"] += end - span["start"]
    for entry in by_name.values():
        entry["sim_time"] = round(entry["sim_time"], 9)
    return {
        "traces": doc["summary"]["traces"],
        "spans": doc["summary"]["spans"],
        "dropped": doc["summary"]["dropped"],
        "by_name": {name: by_name[name] for name in sorted(by_name)},
    }


# -- causal-chain walking --------------------------------------------------

def spans_by_trace(doc: Dict[str, Any]) -> Dict[int, List[Dict[str, Any]]]:
    out: Dict[int, List[Dict[str, Any]]] = {}
    for span in doc["spans"]:
        out.setdefault(span["trace"], []).append(span)
    return out


def _trace_root(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    for span in spans:
        if span["parent"] is None:
            return span
    return spans[0]


def find_livelock_trace(doc: Dict[str, Any]) -> Optional[int]:
    """Pick the trace that best exhibits the §IV-B circular dependency.

    Preference order: a trace whose decode dropped MISSING *and* whose
    encode links to a dependency trace carrying the same TCP sequence
    number (the circular case); then any MISSING-drop trace; then any
    trace with a drop event at all.
    """
    by_trace = spans_by_trace(doc)
    fallback: Optional[int] = None
    dropped: Optional[int] = None
    for tid in sorted(by_trace):
        spans = by_trace[tid]
        missing = any(s["name"] == "decode"
                      and s["tags"].get("status") == "missing"
                      for s in spans)
        if not missing:
            if dropped is None and any("drop" in s["name"] for s in spans):
                dropped = tid
            continue
        if fallback is None:
            fallback = tid
        seq = _trace_root(spans)["tags"].get("seq")
        for span in spans:
            for link in span.get("links", []):
                if link["ref"] != "encoded_against":
                    continue
                dep = by_trace.get(link["trace"])
                if dep and seq is not None \
                        and _trace_root(dep)["tags"].get("seq") == seq:
                    return tid
    return fallback if fallback is not None else dropped


def format_chain(doc: Dict[str, Any], trace_id: int,
                 max_hops: int = 6) -> List[str]:
    """Render one causal chain, hop by hop, following cross-trace links.

    Starts at ``trace_id`` and walks ``encoded_against`` /
    ``retransmission_of`` / ``caused_by_retransmit`` links breadth-
    first (bounded by ``max_hops``).  A hop whose root carries a
    (flow, seq) already seen earlier in the chain is flagged as the
    circular dependency.
    """
    by_trace = spans_by_trace(doc)
    if trace_id not in by_trace:
        return [f"trace t{trace_id}: not found "
                f"({len(by_trace)} traces in export)"]
    lines: List[str] = []
    visited: List[int] = []
    seen_seqs: Dict[Any, int] = {}
    queue: List[int] = [trace_id]
    while queue and len(visited) < max_hops:
        tid = queue.pop(0)
        if tid in visited or tid not in by_trace:
            continue
        visited.append(tid)
        spans = sorted(by_trace[tid], key=lambda s: s["span"])
        root = _trace_root(spans)
        tags = root["tags"]
        header = f"trace t{tid} [{root['name']}]"
        if "packet" in tags:
            header += f" packet={tags['packet']}"
        if "seq" in tags:
            header += f" seq={tags['seq']}"
        if "flow" in tags:
            header += f" flow={':'.join(str(p) for p in tags['flow'])}"
        key = (json.dumps(tags.get("flow")), tags.get("seq"))
        if tags.get("seq") is not None:
            prev = seen_seqs.get(key)
            if prev is not None:
                header += (f"   <== CIRCULAR: same flow/seq as trace t{prev}"
                           " — this segment was encoded against a lost copy"
                           " of itself")
            else:
                seen_seqs[key] = tid
        lines.append(header)
        # Depth from parent links, for indentation.
        depth_of: Dict[int, int] = {}
        for span in spans:
            parent = span["parent"]
            depth_of[span["span"]] = (depth_of.get(parent, -1) + 1
                                      if parent is not None else 0)
        for span in spans:
            indent = "  " * depth_of[span["span"]]
            detail = " ".join(
                f"{k}={v}" for k, v in sorted(span["tags"].items())
                if k not in ("flow", "packet"))
            lines.append(f"  [{span['start']:10.4f}s] {indent}"
                         f"{span['source']:<16} {span['name']:<16} {detail}")
            for link in span.get("links", []):
                lines.append(f"  {'':12s} {indent}  "
                             f"`-> {link['ref']} -> trace t{link['trace']}")
                if link["trace"] not in visited:
                    queue.append(link["trace"])
    if len(visited) >= max_hops and queue:
        lines.append(f"... chain truncated at {max_hops} hops "
                     f"({len(queue)} linked traces unvisited)")
    return lines
