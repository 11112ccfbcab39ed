"""Dependency-graph analysis of encoded packet streams (§IV-B, §VII).

The paper explains its results through the *dependency graph* between
IP packets: packet A depends on packet B when A's encoding references a
region cached from B (Fig. 5 shows the circular case; Fig. 14 walks an
actual capture).  This module rebuilds that graph from a run's
``spans/v1`` export — the encode spans' ``encoded_against`` links plus
the decode spans that closed ``ok`` — and derives the quantities the
paper discusses:

* which packets were *undecodable* and through which chain of missing
  ancestors (transitive loss amplification);
* cycle detection over same-segment retransmissions — the §IV-B
  circular-dependency signature;
* per-packet dependency degree (the File 1 ≈ 4 / File 2 ≈ 7 statistic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

#: Graph nodes are opaque hashable keys.  The metrics layer uses packet
#: ids (ints); the architecture linter (:mod:`repro.analysis`) reuses
#: the same structure with dotted module names (strs) as nodes and
#: layer names as segment keys, so layer-level import cycles fall out
#: of :meth:`DependencyGraph.segment_cycles` unchanged.
Node = Hashable


@dataclass
class DependencyGraph:
    """Directed graph: edge A -> B when A was encoded using B."""

    edges: Dict[Node, Set[Node]] = field(default_factory=dict)
    #: packets that physically left the encoder, in order
    sent: List[Node] = field(default_factory=list)
    #: map packet id -> TCP segment key (seq) for retransmission folding
    segment_of: Dict[Node, Hashable] = field(default_factory=dict)

    def add_packet(self, packet_id: Node, dependencies: Iterable[Node] = (),
                   segment: Optional[Hashable] = None) -> None:
        self.sent.append(packet_id)
        self.edges[packet_id] = set(dependencies)
        if segment is not None:
            self.segment_of[packet_id] = segment

    #: Alias for non-packet callers (the import-DAG reuse reads better
    #: as ``graph.add_node(module, imports, segment=layer)``).
    add_node = add_packet

    def dependencies_of(self, packet_id: Node) -> Set[Node]:
        return self.edges.get(packet_id, set())

    def average_degree(self) -> float:
        """Mean number of references per encoded packet."""
        degrees = [len(deps) for deps in self.edges.values() if deps]
        if not degrees:
            return 0.0
        return sum(degrees) / len(degrees)

    # ------------------------------------------------------------------

    def undecodable_closure(self, lost: Set[Node]) -> Set[Node]:
        """All packets rendered undecodable by the ``lost`` set.

        A packet is undecodable when any of its dependencies is lost or
        (transitively) undecodable — the §IV-A cascade.  Packets are
        processed in send order, mirroring the decoder's behaviour.
        """
        dead: Set[int] = set(lost)
        for packet_id in self.sent:
            if packet_id in dead:
                continue
            if any(dep in dead for dep in self.dependencies_of(packet_id)):
                dead.add(packet_id)
        return dead - set(lost)

    def loss_amplification(self, lost: Set[Node]) -> float:
        """Undecodable packets per lost packet (perceived-loss driver)."""
        if not lost:
            return 0.0
        return len(self.undecodable_closure(lost)) / len(lost)

    # ------------------------------------------------------------------

    def segment_cycles(self) -> List[Tuple[Hashable, ...]]:
        """Cycles after folding retransmissions of the same segment.

        §IV-B: IP_{i-1}, IP_{i+1} and IP_{i+2} "are in fact all the same
        TCP segment", so dependencies between *copies* of one segment
        and packets that depend back on it form cycles.  Each distinct
        cycle is returned as a tuple of segment keys.
        """
        # Build the folded graph over segment keys.
        folded: Dict[Hashable, Set[Hashable]] = {}
        for packet_id, deps in self.edges.items():
            source = self.segment_of.get(packet_id)
            if source is None:
                continue
            bucket = folded.setdefault(source, set())
            for dep in deps:
                target = self.segment_of.get(dep)
                if target is not None and target != source:
                    bucket.add(target)
                elif target == source:
                    bucket.add(source)  # self-loop: copy encoded vs copy

        cycles: List[Tuple[Hashable, ...]] = []
        visited: Set[Hashable] = set()

        def walk(node: Hashable, stack: List[Hashable],
                 on_stack: Set[Hashable]) -> None:
            visited.add(node)
            stack.append(node)
            on_stack.add(node)
            for neighbour in sorted(folded.get(node, ())):
                if neighbour in on_stack:
                    cycle = tuple(stack[stack.index(neighbour):])
                    if cycle not in cycles:
                        cycles.append(cycle)
                elif neighbour not in visited:
                    walk(neighbour, stack, on_stack)
            stack.pop()
            on_stack.remove(node)

        for node in sorted(folded):
            if node not in visited:
                walk(node, [], set())
        return cycles

    def has_self_dependency(self) -> bool:
        """True when some segment's copy is encoded against another copy
        of the same segment — the naive policy's livelock signature."""
        return any(len(cycle) == 1 for cycle in self.segment_cycles())


def graph_from_spans(doc: Dict[str, Any]
                     ) -> Tuple[DependencyGraph, Set[int]]:
    """Build a graph from a ``spans/v1`` export of an unsampled run.

    An ``encode`` span that closed ``encoded`` is a node (its ``seq``
    tag the segment key) and its ``encoded_against`` links are the
    edges; a packet with no ``decode`` span that closed ``ok`` was sent
    but never delivered, and those are returned as the lost/undecodable
    seed set.
    """
    graph = DependencyGraph()
    encoded = {span["tags"]["packet"]: span for span in doc["spans"]
               if span["name"] == "encode" and span["tags"].get("encoded")}
    for packet_id in sorted(encoded):
        span = encoded[packet_id]
        graph.add_packet(
            packet_id,
            (link["packet"] for link in span.get("links", ())
             if link["ref"] == "encoded_against"),
            segment=span["tags"].get("seq"))
    delivered = {span["tags"]["packet"] for span in doc["spans"]
                 if span["name"] == "decode"
                 and span["tags"].get("status") == "ok"}
    return graph, set(graph.sent) - delivered


def format_dependency_trace(graph: DependencyGraph, dead: Set[int],
                            max_rows: int = 20) -> str:
    """A Fig. 14-style rendering: per packet, its dependencies and fate."""
    lines = ["packet   fate         depends on"]
    for packet_id in graph.sent[:max_rows]:
        deps = sorted(graph.dependencies_of(packet_id))
        fate = "DROPPED" if packet_id in dead else "ok"
        dep_text = ", ".join(str(d) for d in deps) if deps else "-"
        lines.append(f"{packet_id:<8} {fate:<12} {dep_text}")
    return "\n".join(lines)
