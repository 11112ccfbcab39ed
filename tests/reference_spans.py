"""The object-per-span ``SpanRecorder`` that ``repro.metrics.spans``
shipped before the flat log, kept verbatim as the differential
reference (ROADMAP: reference variants live in tests, not in ``src/``).

One slotted :class:`Span` with a tags dict and a links list per span,
keyword tags at every site, begin/end pairs for the codec stages.
``tests/test_spans_differential.py`` drives it and the live recorder
with the same call sequences and compares the ``spans/v1`` exports.
Its ``end`` pops the context stack only when the span is on top (the
leak the live recorder fixed), so sequences must close in LIFO order.
"""

from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

SPANS_SCHEMA = "spans/v1"


class Span:
    """One timed causal unit inside a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "source",
                 "start", "end", "wall", "tags", "links", "_wall0")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, source: str, start: float) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.source = source
        self.start = start
        self.end: Optional[float] = None
        self.wall: float = 0.0
        self.tags: Dict[str, Any] = {}
        self.links: List[Dict[str, Any]] = []
        self._wall0 = perf_counter()

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "source": self.source,
            "start": self.start,
            "end": self.end,
            "wall": self.wall,
            "tags": self.tags,
        }
        if self.links:
            doc["links"] = self.links
        return doc


class SpanRecorder:
    """Collects spans for sampled flows; bounded, append-only.

    All methods are no-ops (returning ``None``) for packets whose flow
    was not sampled or once ``max_spans`` is reached — call sites never
    need to distinguish the cases, they just pass the returned handle
    back to the matching ``end``.
    """

    def __init__(self, sim: Any = None, trace_sample: int = 1,
                 max_spans: int = 50_000) -> None:
        self.sim = sim
        self.trace_sample = max(1, int(trace_sample))
        self.max_spans = int(max_spans)
        self.spans: List[Span] = []
        self.traces = 0
        self.dropped = 0
        self._next_span = 0
        # Synchronous context stack: packet_begin/begin push, end pops.
        # Stage sub-spans attach to the top, so the core codec never
        # needs to know trace ids.
        self._stack: List[Span] = []
        # packet_id -> most recent span in that packet's trace; how a
        # trace id crosses the gateway -> link -> gateway boundary
        # without touching the packet objects.
        self._pkt: Dict[int, Span] = {}
        self._open_links: Dict[int, Span] = {}
        self._flow_sampled: Dict[Any, bool] = {}
        self._flow_seen = 0
        # (flow, seq) -> first span that carried this segment / the
        # pending retransmit decision for it.
        self._seq_origin: Dict[Any, Span] = {}
        self._retx: Dict[Any, Span] = {}
        self._faults: List[str] = []

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        sim = self.sim
        return 0.0 if sim is None else sim.now

    def _full(self) -> bool:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return True
        return False

    def _alloc(self, name: str, source: str, trace_id: int,
               parent_id: Optional[int]) -> Span:
        self._next_span += 1
        span = Span(trace_id, self._next_span, parent_id, name, source,
                    self._now())
        if self._faults:
            span.tags["faults"] = list(self._faults)
        self.spans.append(span)
        return span

    def _new_trace(self) -> int:
        self.traces += 1
        return self.traces

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

    # -- synchronous scopes (same-event begin/end) -------------------------

    def begin(self, name: str, source: str, **tags: Any) -> Optional[Span]:
        """Open a span and push it as the current context.

        Child of the current context if one is active, else the root
        of a fresh (always-sampled) trace.  Must be closed with
        :meth:`end` within the same simulator event.
        """
        if self._full():
            return None
        if self._stack:
            top = self._stack[-1]
            span = self._alloc(name, source, top.trace_id, top.span_id)
        else:
            span = self._alloc(name, source, self._new_trace(), None)
        if tags:
            span.tags.update(tags)
        self._stack.append(span)
        return span

    def begin_stage(self, name: str, source: str, **tags: Any) -> Optional[Span]:
        """Like :meth:`begin` but only when a context is already active.

        The codec cores call this: with no enclosing packet span (flow
        unsampled, or the core driven directly by a benchmark) it
        records nothing rather than minting orphan traces per packet.
        """
        if not self._stack or self._full():
            return None
        top = self._stack[-1]
        span = self._alloc(name, source, top.trace_id, top.span_id)
        if tags:
            span.tags.update(tags)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span], **tags: Any) -> None:
        if span is None:
            return
        span.end = self._now()
        span.wall = perf_counter() - span._wall0
        if tags:
            span.tags.update(tags)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def end_stage(self, span: Optional[Span], **tags: Any) -> None:
        self.end(span, **tags)

    # -- asynchronous scopes (multi-event units, e.g. a resync) ------------

    def open(self, name: str, source: str, parent: Optional[Span] = None,
             **tags: Any) -> Optional[Span]:
        """Open a span that stays live across simulator events.

        Not pushed on the context stack; the caller holds the handle
        and closes it with :meth:`end` when the unit completes.
        """
        if self._full():
            return None
        if parent is not None:
            span = self._alloc(name, source, parent.trace_id, parent.span_id)
        else:
            span = self._alloc(name, source, self._new_trace(), None)
        if tags:
            span.tags.update(tags)
        return span

    def event(self, name: str, source: str, **tags: Any) -> Optional[Span]:
        """Zero-duration span: child of the active context, else a root."""
        if self._full():
            return None
        if self._stack:
            top = self._stack[-1]
            span = self._alloc(name, source, top.trace_id, top.span_id)
        else:
            span = self._alloc(name, source, self._new_trace(), None)
        span.end = span.start
        if tags:
            span.tags.update(tags)
        return span

    def child_event(self, parent: Optional[Span], name: str, source: str,
                    **tags: Any) -> Optional[Span]:
        """Zero-duration span under an explicitly held parent."""
        if parent is None or self._full():
            return None
        span = self._alloc(name, source, parent.trace_id, parent.span_id)
        span.end = span.start
        if tags:
            span.tags.update(tags)
        return span

    # -- packet plumbing (trace propagation across hops) -------------------

    def packet_begin(self, name: str, source: str, packet_id: int,
                     flow: Any = None, seq: Optional[int] = None,
                     **tags: Any) -> Optional[Span]:
        """Open a packet-scoped span and push it as the context.

        Continues the packet's existing trace when one is known (the
        decode side of a hop), else roots a new trace subject to flow
        sampling.  A fresh root inherits any pending retransmit
        decision for (flow, seq) as a ``caused_by_retransmit`` link.
        """
        prior = self._pkt.get(packet_id)
        if prior is not None:
            if self._full():
                return None
            span = self._alloc(name, source, prior.trace_id, prior.span_id)
        else:
            if not self.sampled(flow) or self._full():
                return None
            span = self._alloc(name, source, self._new_trace(), None)
        span.tags["packet"] = packet_id
        if flow is not None:
            span.tags["flow"] = list(flow)
        if seq is not None:
            span.tags["seq"] = seq
            key = (flow, seq)
            if key not in self._seq_origin:
                self._seq_origin[key] = span
            retx = self._retx.pop(key, None)
            if retx is not None:
                span.links.append({"ref": "caused_by_retransmit",
                                   "trace": retx.trace_id,
                                   "span": retx.span_id})
        if tags:
            span.tags.update(tags)
        self._pkt[packet_id] = span
        self._stack.append(span)
        return span

    def packet_end(self, span: Optional[Span], **tags: Any) -> None:
        self.end(span, **tags)

    def packet_event(self, name: str, source: str, packet_id: int,
                     **tags: Any) -> Optional[Span]:
        """Zero-duration span appended to a packet's trace (if traced)."""
        ctx = self._pkt.get(packet_id)
        if ctx is None or self._full():
            return None
        span = self._alloc(name, source, ctx.trace_id, ctx.span_id)
        span.end = span.start
        span.tags["packet"] = packet_id
        if tags:
            span.tags.update(tags)
        return span

    def link_deps(self, span: Optional[Span],
                  dep_packet_ids: Iterable[int]) -> None:
        """Record ``encoded_against`` links to the dependencies' traces."""
        if span is None:
            return
        pkt = self._pkt
        links = []
        for dep in dep_packet_ids:
            target = pkt.get(dep)
            if target is not None:
                links.append({"ref": "encoded_against",
                              "trace": target.trace_id,
                              "span": target.span_id,
                              "packet": dep})
        # Dependencies arrive as a set of process-global packet ids;
        # order by trace so the export replays bit-identically.
        links.sort(key=lambda link: (link["trace"], link["span"]))
        span.links.extend(links)

    # -- link transit ------------------------------------------------------

    def link_begin(self, source: str, packet_id: int,
                   **tags: Any) -> Optional[Span]:
        """Open a transit span when a traced packet enters a link."""
        ctx = self._pkt.get(packet_id)
        if ctx is None or self._full():
            return None
        span = self._alloc("link_transit", source, ctx.trace_id, ctx.span_id)
        span.tags["packet"] = packet_id
        if tags:
            span.tags.update(tags)
        self._open_links[packet_id] = span
        self._pkt[packet_id] = span
        return span

    def link_annotate(self, packet_id: int, **tags: Any) -> None:
        span = self._open_links.get(packet_id)
        if span is not None:
            span.tags.update(tags)

    def link_end(self, packet_id: int, outcome: str,
                 **tags: Any) -> Optional[Span]:
        """Close the packet's open transit span with an outcome tag."""
        span = self._open_links.pop(packet_id, None)
        if span is None:
            return None
        span.end = self._now()
        span.wall = perf_counter() - span._wall0
        span.tags["outcome"] = outcome
        if tags:
            span.tags.update(tags)
        return span

    # -- control plane -----------------------------------------------------

    def note_retransmit(self, source: str, flow: Any, seq: int,
                        **tags: Any) -> Optional[Span]:
        """Record a TCP retransmit decision as its own small trace.

        Links back to the first traced packet that carried this
        sequence number; the next packet traced with the same
        (flow, seq) links forward to this span, closing the causal
        chain stall -> retransmit -> re-encode.
        """
        if not self.sampled(flow) or self._full():
            return None
        span = self._alloc("tcp_retransmit", source, self._new_trace(), None)
        span.end = span.start
        if flow is not None:
            span.tags["flow"] = list(flow)
        span.tags["seq"] = seq
        if tags:
            span.tags.update(tags)
        key = (flow, seq)
        origin = self._seq_origin.get(key)
        if origin is not None:
            span.links.append({"ref": "retransmission_of",
                               "trace": origin.trace_id,
                               "span": origin.span_id})
        self._retx[key] = span
        return span

    def fault_begin(self, name: str) -> None:
        """Mark an injected-fault window: spans created while any
        window is active carry a ``faults`` tag."""
        self._faults.append(name)

    def fault_end(self, name: str) -> None:
        try:
            self._faults.remove(name)
        except ValueError:
            pass

    # -- introspection -----------------------------------------------------

    def current_ids(self) -> Tuple[Optional[int], Optional[int]]:
        """(trace_id, span_id) of the active context, or (None, None)."""
        if self._stack:
            top = self._stack[-1]
            return (top.trace_id, top.span_id)
        return (None, None)

    def ids_for_packet(self, packet_id: int
                       ) -> Tuple[Optional[int], Optional[int]]:
        span = self._pkt.get(packet_id)
        if span is None:
            return (None, None)
        return (span.trace_id, span.span_id)

    # -- export ------------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """The full spans/v1 document (JSON-shaped, schema-stamped)."""
        open_spans = 0
        for span in self.spans:
            if span.end is None:
                open_spans += 1
        return {
            "schema": SPANS_SCHEMA,
            "trace_sample": self.trace_sample,
            "summary": {
                "spans": len(self.spans),
                "traces": self.traces,
                "dropped": self.dropped,
                "open": open_spans,
            },
            "spans": [span.to_dict() for span in self.spans],
        }
