"""Tests for causal span tracing (repro.metrics.spans) and the flame
builder (repro.metrics.flame)."""

import json
import pickle

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_transfer
from repro.metrics.flame import build_flame, format_flame, to_folded
from repro.metrics.spans import (SPANS_SCHEMA, SpanRecorder,
                                 find_livelock_trace, format_chain,
                                 spans_by_trace, spans_if, spans_rollup,
                                 validate_spans)


def span_of(rec, handle):
    """One span's ``spans/v1`` dict, read from the recorder's export."""
    span_id = rec.span_ids(handle)[1]
    return next(span for span in rec.export()["spans"]
                if span["span"] == span_id)


class FakeSim:
    def __init__(self):
        self.now = 0.0


class TestSpanRecorderScopes:
    def test_begin_end_nest_under_context_stack(self):
        rec = SpanRecorder()
        outer = rec.packet_begin("encode", "a", 1)
        inner = rec.packet_begin("decode", "a", 1)
        assert span_of(rec, inner)["trace"] == span_of(rec, outer)["trace"]
        assert span_of(rec, inner)["parent"] == span_of(rec, outer)["span"]
        rec.end(inner)
        rec.end(outer)
        assert rec.current_ids() == (None, None)

    def test_begin_stage_noops_without_context(self):
        """Codec cores driven directly (benchmarks) record nothing."""
        rec = SpanRecorder()
        assert rec.stage("table_probe", "enc", 0.0) is None
        rec.end(None)  # must be None-safe
        assert rec.export()["spans"] == []

    def test_stage_attaches_to_active_packet(self):
        rec = SpanRecorder()
        pkt = rec.packet_begin("encode", "gw", packet_id=1)
        rec.stage("table_probe", "enc", 0.25)
        rec.end(pkt, True)
        enc, stage = rec.export()["spans"]
        assert stage["trace"] == enc["trace"]
        assert stage["parent"] == enc["span"]
        assert stage["wall"] == 0.25 and stage["start"] == stage["end"]
        assert enc["tags"]["encoded"] is True

    def test_stage_takes_the_id_its_begin_would_have(self):
        """A one-shot stage is emitted after the work; its id equals the
        one a span drawn under the packet at the start would have had
        only because nothing allocates a span while the stage runs."""
        paired, one_shot = SpanRecorder(), SpanRecorder()
        for rec in (paired, one_shot):
            pkt = rec.packet_begin("encode", "gw", packet_id=1)
            if rec is paired:
                rec.event("table_probe", "enc")
                rec.event("wire_pack", "enc")
            else:
                rec.stage("table_probe", "enc", 0.0)
                rec.stage("wire_pack", "enc", 0.0)
            rec.end(pkt)
            rec.event("queue_drop", "link", 1)

        def ids(rec):
            return [(s["span"], s["parent"], s["name"])
                    for s in rec.export()["spans"]]

        assert ids(paired) == ids(one_shot)

    def test_sim_clock_stamps_start_end(self):
        sim = FakeSim()
        rec = SpanRecorder(sim=sim)
        span = rec.packet_begin("encode", "a", 1)
        sim.now = 2.5
        rec.end(span)
        doc = span_of(rec, span)
        assert doc["start"] == 0.0 and doc["end"] == 2.5

    def test_event_is_zero_duration(self):
        rec = SpanRecorder()
        span = span_of(rec, rec.event("watchdog_trip", "dec", None, 16))
        assert span["end"] == span["start"]
        assert span["tags"] == {"window": 16}

    def test_open_span_survives_across_events(self):
        rec = SpanRecorder()
        resync = rec.open("resync", "dec", 3)
        child = rec.child_event(resync, "resync_retry", "dec", 1)
        assert span_of(rec, child)["parent"] == span_of(rec, resync)["span"]
        rec.end(resync, "completed")
        assert span_of(rec, resync)["tags"] == {"resync_id": 3,
                                           "outcome": "completed"}

    def test_tag_outside_the_vocabulary_is_rejected_at_export(self):
        rec = SpanRecorder()
        rec.event("wire_pack", "enc", 10, "one too many")
        with pytest.raises(ValueError, match="wire_pack"):
            rec.export()


class TestTracePropagation:
    def test_trace_crosses_gateway_link_gateway(self):
        """encode -> link_transit -> decode share one trace id."""
        rec = SpanRecorder()
        enc = rec.packet_begin("encode", "enc-gw", packet_id=7,
                               flow=("a", 1, "b", 2), seq=100)
        rec.end(enc)
        transit = rec.link_begin("link.fwd", 7, 60)
        rec.link_end(7, "delivered")
        dec = rec.packet_begin("decode", "dec-gw", packet_id=7)
        rec.end(dec, "ok")
        enc, transit, dec = rec.export()["spans"]
        assert enc["trace"] == transit["trace"] == dec["trace"]
        assert transit["parent"] == enc["span"]
        assert dec["parent"] == transit["span"]
        assert transit["tags"] == {"packet": 7, "bytes": 60,
                                   "outcome": "delivered"}
        assert dec["tags"] == {"packet": 7, "status": "ok"}

    def test_flow_sampling_every_nth(self):
        rec = SpanRecorder(trace_sample=2)
        kept = rec.packet_begin("encode", "gw", 1, flow="f0", seq=1)
        rec.end(kept)
        skipped = rec.packet_begin("encode", "gw", 2, flow="f1", seq=1)
        assert kept is not None and skipped is None
        # Same flow keeps its verdict.
        again = rec.packet_begin("encode", "gw", 3, flow="f0", seq=2)
        assert again is not None
        rec.end(again)

    def test_packet_event_needs_traced_packet(self):
        rec = SpanRecorder()
        assert rec.packet_event("queue_drop", "link", 99) is None
        span = rec.packet_begin("encode", "gw", 99)
        rec.end(span)
        drop = rec.packet_event("queue_drop", "link", 99)
        assert span_of(rec, drop)["trace"] == span_of(rec, span)["trace"]

    def test_link_deps_record_encoded_against(self):
        rec = SpanRecorder()
        dep = rec.packet_begin("encode", "gw", 1)
        rec.end(dep)
        cur = rec.packet_begin("encode", "gw", 2)
        rec.link_deps(cur, [1, 42])  # 42 untraced -> skipped
        rec.end(cur)
        dep = span_of(rec, dep)
        assert span_of(rec, cur)["links"] == [{"ref": "encoded_against",
                                           "trace": dep["trace"],
                                           "span": dep["span"], "packet": 1}]

    def test_retransmit_links_close_the_causal_loop(self):
        rec = SpanRecorder()
        flow = ("s", 80, "c", 1000)
        first = rec.packet_begin("encode", "gw", 1, flow=flow, seq=500)
        rec.end(first)
        retx = rec.note_retransmit("tcp", flow, 500, 1460)
        first, retx = span_of(rec, first), span_of(rec, retx)
        assert retx["links"] == [{"ref": "retransmission_of",
                                  "trace": first["trace"],
                                  "span": first["span"]}]
        second = rec.packet_begin("encode", "gw", 2, flow=flow, seq=500)
        rec.end(second)
        assert {"ref": "caused_by_retransmit", "trace": retx["trace"],
                "span": retx["span"]} in span_of(rec, second)["links"]

    def test_fault_windows_tag_spans(self):
        rec = SpanRecorder()
        rec.fault_begin("link_flap")
        span = rec.packet_begin("encode", "gw", 1)
        rec.end(span)
        rec.fault_end("link_flap")
        after = rec.packet_begin("encode", "gw", 2)
        assert span_of(rec, span)["tags"]["faults"] == ["link_flap"]
        assert "faults" not in span_of(rec, after)["tags"]
        rec.fault_end("never_opened")  # must not raise

    def test_max_spans_bounds_and_counts_drops(self):
        rec = SpanRecorder(max_spans=2)
        a = rec.open("a", "x")
        rec.end(a)
        b = rec.open("b", "x")
        rec.end(b)
        assert rec.open("c", "x") is None
        assert rec.packet_begin("d", "x", 9) is None
        assert len(rec.export()["spans"]) == 2
        assert rec.dropped == 2
        assert rec.export()["summary"]["dropped"] == 2


class TestContextStackUnwinds:
    """A span closed out of order, or abandoned by an exception, must
    not stay the context of everything recorded afterwards."""

    def test_out_of_order_close_leaves_no_dead_context(self):
        rec = SpanRecorder()
        a = rec.packet_begin("encode", "x", 1)
        b = rec.packet_begin("decode", "x", 1)
        rec.end(a)
        rec.end(b)
        assert rec.current_ids() == (None, None)
        event = span_of(rec, rec.event("queue_drop", "x"))
        assert event["parent"] is None
        assert event["trace"] != span_of(rec, a)["trace"]

    def test_closing_a_parent_unwinds_its_abandoned_child(self):
        rec = SpanRecorder()
        outer = rec.packet_begin("encode", "gw", 1)
        rec.packet_begin("decode", "x", 1)  # never closed: its owner raised
        rec.end(outer)
        assert rec.current_ids() == (None, None)

    @pytest.mark.parametrize("side", ["encoder", "decoder"])
    def test_gateway_closes_its_packet_span_when_the_codec_raises(self, side):
        from repro.sim import Simulator
        from tests.test_gateway import data_packet, make_pair, random_bytes

        sim = Simulator()
        rec = SpanRecorder(sim=sim)
        _sim, pair, enc_out, _dec_out = make_pair(sim, spans=rec)

        def boom(*args, **kwargs):
            raise RuntimeError("armed oracle")

        if side == "encoder":
            pair.encoder.encoder.encode = boom
            with pytest.raises(RuntimeError):
                pair.encoder.receive(data_packet(random_bytes(1)))
        else:
            pair.encoder.receive(data_packet(random_bytes(1)))
            pair.decoder.decoder.decode = boom
            with pytest.raises(RuntimeError):
                pair.decoder.receive(enc_out.packets[0])
        assert rec.current_ids() == (None, None)
        doc = rec.export()
        validate_spans(doc)
        assert doc["summary"]["open"] == 0
        # The next root event starts its own trace, not the dead one's.
        assert span_of(rec, rec.event("watchdog_trip", "dec"))["parent"] is None


class TestExport:
    def make_doc(self):
        rec = SpanRecorder(sim=FakeSim())
        enc = rec.packet_begin("encode", "gw", 1, flow=("a", 1, "b", 2),
                               seq=10)
        rec.stage("table_probe", "enc", 0.0)
        rec.end(enc)
        rec.link_begin("link", 1, 60)
        rec.link_end(1, "delivered")
        return rec.export()

    def test_export_shape_and_validation(self):
        doc = self.make_doc()
        assert doc["schema"] == SPANS_SCHEMA
        assert doc["summary"]["spans"] == len(doc["spans"]) == 3
        json.dumps(doc)  # JSON-safe
        validate_spans(doc)

    def test_validate_rejects_corruption(self):
        doc = self.make_doc()
        with pytest.raises(ValueError):
            validate_spans({**doc, "schema": "bogus/v9"})
        broken = json.loads(json.dumps(doc))
        broken["spans"][0].pop("trace")
        with pytest.raises(ValueError):
            validate_spans(broken)
        dup = json.loads(json.dumps(doc))
        dup["spans"][1]["span"] = dup["spans"][0]["span"]
        with pytest.raises(ValueError):
            validate_spans(dup)

    def test_rollup_is_wall_free(self):
        """The rollup feeds sweep and chaos replay records: no wall times."""
        doc = self.make_doc()
        rollup = spans_rollup(doc)
        assert rollup["spans"] == 3
        assert "wall" not in json.dumps(rollup)
        assert rollup["by_name"]["encode"]["count"] == 1

    def test_spans_if_contract(self):
        assert spans_if(False) is None
        rec = spans_if(True, trace_sample=4)
        assert isinstance(rec, SpanRecorder)
        assert rec.trace_sample == 4


class TestFlame:
    def make_doc(self):
        rec = SpanRecorder(sim=FakeSim())
        for pkt in range(3):
            enc = rec.packet_begin("encode", "gw", pkt)
            rec.stage("table_probe", "enc", 0.0)
            rec.end(enc)
        return rec.export()

    def test_tree_structure_and_counts(self):
        root = build_flame(self.make_doc(), weight="count")
        assert set(root.children) == {"encode"}
        encode = root.children["encode"]
        assert encode.count == 3
        assert encode.children["table_probe"].count == 3
        # count weight: self == count, total adds descendants
        assert encode.self_weight == 3
        assert encode.total == 6

    def test_self_never_negative(self):
        root = build_flame(self.make_doc(), weight="wall")
        for node in root.children.values():
            assert node.self_weight >= 0

    def test_format_and_folded(self):
        root = build_flame(self.make_doc(), weight="count")
        text = "\n".join(format_flame(root, weight="count"))
        assert "encode" in text and "table_probe" in text
        folded = to_folded(root, weight="count")
        assert "encode 3" in folded
        assert "encode;table_probe 3" in folded

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            build_flame(self.make_doc(), weight="bogus")


def naive_run(loss=0.01, size=60 * 1460, **kwargs):
    config = ExperimentConfig(
        corpus="file1", file_size=size, policy="naive", policy_kwargs={},
        loss_rate=loss, seed=11, spans=True,
        time_limit=120.0, tcp_max_retries=8, tcp_max_rto=2.0, **kwargs)
    return run_transfer(config)


def test_wall_flame_charges_link_transit_no_self_time():
    """The host time between a packet's offer and its delivery is spent
    on other events, which have their own spans: a transit carries
    ``wall`` 0.0, so the wall flame gives it no self time while its
    children (the decode on the far side) keep theirs."""
    doc = naive_run(loss=0.05).spans
    transits = [s for s in doc["spans"] if s["name"] == "link_transit"]
    assert transits and all(s["wall"] == 0.0 for s in transits)
    root = build_flame(doc, weight="wall")
    stack = [root]
    seen = 0
    while stack:
        node = stack.pop()
        stack.extend(node.children.values())
        if node.name == "link_transit":
            seen += 1
            assert node.self_weight == 0.0
            assert node.total > 0.0
    assert seen


class TestEndToEnd:
    def test_disabled_by_default_and_result_roundtrip(self):
        config = ExperimentConfig(corpus="file1", file_size=20 * 1460,
                                  policy="naive", policy_kwargs={},
                                  loss_rate=0.0, seed=3)
        result = run_transfer(config)
        assert result.spans is None
        # The field survives the pickle a worker process returns through
        # and the plain-dict export.
        assert pickle.loads(pickle.dumps(result)).spans is None
        assert json.loads(json.dumps(result.to_dict()))["spans"] is None

    def test_traced_run_validates_and_covers_the_pipeline(self):
        result = naive_run(loss=0.0, size=20 * 1460)
        doc = result.spans
        validate_spans(doc)
        names = {span["name"] for span in doc["spans"]}
        assert {"encode", "table_probe", "region_expand", "wire_pack",
                "link_transit", "decode"} <= names
        assert doc["summary"]["open"] == 0  # clean run closes every span

    def test_livelock_chain_found_and_rendered(self):
        """§IV-B: the naive stall walks back to a circular dependency."""
        result = naive_run(loss=0.01)
        assert not result.completed  # the classic livelock stall
        doc = result.spans
        validate_spans(doc)
        trace = find_livelock_trace(doc)
        assert trace is not None
        lines = format_chain(doc, trace)
        text = "\n".join(lines)
        assert "CIRCULAR" in text
        assert "encoded_against" in text
        assert "retransmission_of" in text or "caused_by_retransmit" in text
        assert "status=missing" in text
        # The flagged hop names the same (flow, seq) twice: the
        # retransmission was encoded against a lost copy of itself.
        by_trace = spans_by_trace(doc)
        assert trace in by_trace

    def test_trace_ids_deterministic_across_runs(self):
        a = naive_run(loss=0.01).spans
        b = naive_run(loss=0.01).spans

        def strip(doc):
            # Wall times are host noise and packet ids come from a
            # process-global counter; everything else must replay
            # bit-identically.
            out = []
            for span in doc["spans"]:
                clean = {k: v for k, v in span.items() if k != "wall"}
                clean["tags"] = {k: v for k, v in span["tags"].items()
                                 if k != "packet"}
                if "links" in clean:
                    clean["links"] = [
                        {k: v for k, v in link.items() if k != "packet"}
                        for link in clean["links"]]
                out.append(clean)
            return out

        assert strip(a) == strip(b)
        assert spans_rollup(a) == spans_rollup(b)

    def test_resilience_control_plane_spans_emitted(self):
        """Resync handshakes and watchdog trips show up as spans."""
        result = naive_run(loss=0.05, resilience=True)
        doc = result.spans
        validate_spans(doc)
        names = {span["name"] for span in doc["spans"]}
        assert "watchdog_trip" in names
        assert "resync" in names and "resync_served" in names
        resyncs = [span for span in doc["spans"]
                   if span["name"] == "resync"]
        assert all("outcome" in span["tags"] for span in resyncs)

    def test_gateway_crash_window_tags_spans(self):
        from repro.experiments.runner import (FILE_NAME, Fetch,
                                              build_testbed, run_fetches)
        from repro.sim.faults import schedule_gateway_restart
        from repro.workload.corpus import corpus_object

        config = ExperimentConfig(
            corpus="file1", file_size=40 * 1460, policy="naive",
            policy_kwargs={}, loss_rate=0.0, seed=5, resilience=True,
            spans=True, time_limit=120.0, tcp_max_retries=8,
            tcp_max_rto=2.0)
        testbed = build_testbed(config)
        data = corpus_object(config.corpus, config.file_size,
                             config.corpus_seed)
        schedule_gateway_restart(testbed.sim, testbed.gateways.decoder,
                                 at=0.01, downtime=0.02)
        run_fetches(testbed, config, {FILE_NAME: data}, [Fetch()])
        doc = testbed.spans.export()
        validate_spans(doc)
        tagged = [span for span in doc["spans"]
                  if span["tags"].get("faults") == ["gateway_down"]]
        assert tagged, "no spans created inside the crash window"
        untagged = [span for span in doc["spans"]
                    if "faults" not in span["tags"]]
        assert untagged, "fault window never closed"
