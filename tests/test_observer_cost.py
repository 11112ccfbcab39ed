"""What the observers cost, and that they cost nothing when off.

The codec reads the wall clock only for an observer (profiler or span
recorder): with every observer off, a transfer must never reach
``perf_counter`` in the encoder or the decoder.  The batched forms of
the observers' per-packet work (one stage-span call per encode, one
flight-recorder append per event) must record what the unbatched forms
did.
"""

import pytest

from repro.core.policies import ENCODER_POLICIES
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_transfer
from repro.metrics.spans import SpanRecorder
from repro.metrics.telemetry import FlightRecorder, MetricsRegistry


def _no_clock():
    raise AssertionError("perf_counter read with every observer off")


@pytest.mark.parametrize("policy", sorted(ENCODER_POLICIES))
def test_unobserved_codec_never_reads_the_clock(policy, monkeypatch):
    monkeypatch.setattr("repro.core.encoder.perf_counter", _no_clock)
    monkeypatch.setattr("repro.core.decoder.perf_counter", _no_clock)
    result = run_transfer(ExperimentConfig(
        policy=policy, file_size=30 * 1460, loss_rate=0.02, seed=3,
        telemetry=False, spans=False, profile=False, verify=False))
    assert result.outcome.completed
    assert result.telemetry is None and result.spans is None


def _without_packet_wall(doc):
    return [dict(span, wall=None) if span["name"] == "encode" else span
            for span in doc["spans"]]


class TestEncodeStages:
    def _open(self, max_spans):
        rec = SpanRecorder(max_spans=max_spans)
        return rec, rec.packet_begin("encode", "enc-gw", 1, None, 0)

    def test_three_stages_as_three_stage_calls(self):
        batched, span = self._open(50)
        batched.encode_stages("core", 0.1, 0.2, 0.3, 2, 1, 90)
        batched.end(span)
        single, span = self._open(50)
        single.stage("table_probe", "core", 0.1)
        single.stage("region_expand", "core", 0.2, 2, 1)
        single.stage("wire_pack", "core", 0.3, 90)
        single.end(span)
        # The stage walls are the ones passed in; the encode span's own
        # is host time.
        assert _without_packet_wall(batched.export()) == \
            _without_packet_wall(single.export())

    def test_unstaged_encode_emits_wire_pack_alone(self):
        rec, span = self._open(50)
        rec.encode_stages("core", None, None, 0.3, 0, 0, 90)
        rec.end(span)
        names = [s["name"] for s in rec.export()["spans"]]
        assert names == ["encode", "wire_pack"]

    @pytest.mark.parametrize("max_spans", [1, 2, 3, 4])
    def test_bound_inside_the_batch_keeps_what_fits(self, max_spans):
        rec, span = self._open(max_spans)
        rec.encode_stages("core", 0.1, 0.2, 0.3, 2, 1, 90)
        rec.end(span)
        kept = rec.export()["spans"]
        assert len(kept) == min(max_spans, 4)
        assert rec.dropped == 4 - len(kept)
        assert [s["name"] for s in kept] == [
            "encode", "table_probe", "region_expand", "wire_pack"][:len(kept)]

    def test_no_context_records_nothing(self):
        rec = SpanRecorder()
        rec.encode_stages("core", 0.1, 0.2, 0.3, 2, 1, 90)
        assert rec.export()["spans"] == [] and rec.dropped == 0


class TestFlightRecorderEvents:
    def test_dependency_set_dumps_sorted(self):
        recorder = FlightRecorder()
        deps = {9, 2, 5}
        recorder.record(1.0, "enc-gw", "encode",
                        {"packet_id": 4, "deps": deps, "saved": 10})
        assert recorder.dump() == [{
            "time": 1.0, "source": "enc-gw", "event": "encode",
            "detail": {"packet_id": 4, "deps": [2, 5, 9], "saved": 10}}]

    def test_ids_are_those_of_the_span_current_at_record_time(self):
        recorder = FlightRecorder()
        spans = recorder.spans = SpanRecorder()
        span = spans.packet_begin("encode", "enc-gw", 4)
        recorder.record(0.0, "enc-gw", "encode", {"packet_id": 4})
        spans.end(span)
        spans.link_begin("link", 4, 100)   # the packet moves on
        recorder.record(0.0, "node", "idle")
        outer = spans.packet_begin("decode", "dec-gw", 7)
        recorder.record(0.0, "dec-gw", "note", {"packet_id": 99})
        spans.end(outer)
        assert [row["detail"] for row in recorder.dump()] == [
            {"packet_id": 4, "trace": 1, "span": 1},
            {},
            {"packet_id": 99, "trace": 2, "span": 3},
        ]


class TestRegistrySources:
    def test_source_reregistration_swaps_the_function(self):
        registry = MetricsRegistry()
        gauges = [("g", {"conn": "c"}), ("h", {"conn": "c"})]
        first = registry.source(lambda: (1, 2), gauges)
        assert registry.source(lambda: (3, 4), gauges) is first
        assert registry.snapshot() == {"g{conn=c}": 3.0, "h{conn=c}": 4.0}
        first.fn = None
        assert registry.snapshot() == {"g{conn=c}": None, "h{conn=c}": None}

    def test_source_cannot_take_over_a_lone_gauge(self):
        registry = MetricsRegistry()
        registry.source(lambda: (1,), [("g", {})])      # a lone gauge
        with pytest.raises(ValueError):
            registry.source(lambda: (1, 2), [("g", {}), ("h", {})])
        registry.source(lambda: (1, 2), [("h", {}), ("i", {})])
        with pytest.raises(ValueError):
            registry.source(lambda: (2,), [("i", {})])
        assert len(registry) == 3
