"""Tests for the dependency-graph analysis (§IV-B / §VII / Fig. 14)."""

from repro.metrics.depgraph import DependencyGraph, format_dependency_trace


def chain_graph():
    """1 <- 2 <- 3 <- 4 (each depends on its predecessor)."""
    graph = DependencyGraph()
    graph.add_packet(1)
    graph.add_packet(2, [1])
    graph.add_packet(3, [2])
    graph.add_packet(4, [3])
    return graph


class TestClosure:
    def test_no_loss_no_undecodable(self):
        graph = chain_graph()
        assert graph.undecodable_closure(set()) == set()

    def test_chain_cascades(self):
        graph = chain_graph()
        assert graph.undecodable_closure({1}) == {2, 3, 4}

    def test_mid_chain_loss(self):
        graph = chain_graph()
        assert graph.undecodable_closure({3}) == {4}

    def test_independent_packets_unaffected(self):
        graph = DependencyGraph()
        graph.add_packet(1)
        graph.add_packet(2, [1])
        graph.add_packet(3)        # no dependencies
        assert graph.undecodable_closure({1}) == {2}

    def test_diamond_dependencies(self):
        graph = DependencyGraph()
        graph.add_packet(1)
        graph.add_packet(2)
        graph.add_packet(3, [1, 2])
        assert graph.undecodable_closure({2}) == {3}

    def test_loss_amplification(self):
        graph = chain_graph()
        assert graph.loss_amplification({1}) == 3.0
        assert graph.loss_amplification(set()) == 0.0


class TestDegrees:
    def test_average_degree_counts_encoded_only(self):
        graph = DependencyGraph()
        graph.add_packet(1)            # raw
        graph.add_packet(2, [1])
        graph.add_packet(3, [1, 2])
        assert graph.average_degree() == 1.5

    def test_average_degree_empty(self):
        assert DependencyGraph().average_degree() == 0.0


class TestCycles:
    def test_retransmission_self_cycle_detected(self):
        """§IV-B: copies of one TCP segment encoded against each other."""
        graph = DependencyGraph()
        graph.add_packet(10, [], segment=100)         # original, lost
        graph.add_packet(11, [10], segment=200)
        graph.add_packet(12, [11], segment=100)       # retrans enc. vs 11
        graph.add_packet(13, [12], segment=100)       # retrans enc. vs 12
        cycles = graph.segment_cycles()
        assert graph.has_self_dependency()
        assert any(100 in cycle for cycle in cycles)

    def test_two_segment_cycle(self):
        graph = DependencyGraph()
        graph.add_packet(1, [], segment=100)
        graph.add_packet(2, [1], segment=200)       # 200 -> 100
        graph.add_packet(3, [2], segment=100)       # 100 -> 200 (retrans)
        cycles = graph.segment_cycles()
        assert cycles
        assert set(cycles[0]) <= {100, 200}

    def test_acyclic_stream_has_no_cycles(self):
        graph = DependencyGraph()
        graph.add_packet(1, [], segment=100)
        graph.add_packet(2, [1], segment=200)
        graph.add_packet(3, [2], segment=300)
        assert graph.segment_cycles() == []
        assert not graph.has_self_dependency()


class TestFormatting:
    def test_trace_rendering(self):
        graph = chain_graph()
        dead = graph.undecodable_closure({1})
        text = format_dependency_trace(graph, dead)
        assert "DROPPED" in text
        assert "depends on" in text


class TestEndToEnd:
    def test_naive_run_shows_self_dependency(self):
        """The naive policy under one forced loss must show the §IV-B
        circular dependency in its measured dependency graph."""
        from repro.metrics.depgraph import graph_from_spans
        from tests.test_integration_stall import run_with_event

        testbed, outcome, _state = run_with_event("naive", spans=True)
        graph, lost = graph_from_spans(testbed.spans.export())
        assert graph.sent
        assert graph.average_degree() >= 1.0
        assert graph.has_self_dependency()
        # The undecodable closure of the lost packets is non-trivial.
        assert lost

    def test_robust_run_has_no_self_dependency(self):
        from repro.metrics.depgraph import graph_from_spans
        from tests.test_integration_stall import run_with_event

        testbed, outcome, _state = run_with_event("tcp_seq", spans=True)
        graph, _ = graph_from_spans(testbed.spans.export())
        assert outcome.completed
        assert not graph.has_self_dependency()
