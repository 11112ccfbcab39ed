"""Tests for the unified telemetry layer (repro.metrics.telemetry)."""

import json
import math
import pickle

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_transfer
from repro.metrics.telemetry import (FlightRecorder, MetricsRegistry,
                                     Telemetry,
                                     TelemetrySampler, metric_key,
                                     telemetry_if, validate_telemetry)
from repro.sim.engine import Simulator
from repro.sim.node import Node


class TestMetricsRegistry:
    def test_same_identity_is_memoised(self):
        registry = MetricsRegistry()
        a = registry.source(lambda: (1,), [("g", {"gw": "x"})])
        b = registry.source(lambda: (2,), [("g", {"gw": "x"})])
        assert a is b
        assert a.keys == ("g{gw=x}",)
        assert registry.source(lambda: (3,), [("g", {"gw": "y"})]) is not a
        assert registry.snapshot() == {"g{gw=x}": 2.0, "g{gw=y}": 3.0}

    def test_label_order_does_not_matter(self):
        assert (metric_key("m", {"a": 1, "b": 2})
                == metric_key("m", {"b": 2, "a": 1}))

    def test_unlabelled_key_is_bare_name(self):
        assert metric_key("dre.perceived_loss", {}) == "dre.perceived_loss"

    def test_pull_gauge_reads_callback(self):
        registry = MetricsRegistry()
        state = {"v": 1.0}
        registry.source(lambda: (state["v"], 2 * state["v"]),
                        [("g", {}), ("h", {})])
        assert registry.snapshot() == {"g": 1.0, "h": 2.0}
        state["v"] = 7.5
        assert registry.snapshot() == {"g": 7.5, "h": 15.0}

    def test_raising_or_torn_down_source_reads_nan(self):
        registry = MetricsRegistry()
        registry.source(lambda: 1 / 0, [("bad", {})])
        torn = registry.source(lambda: (1.0,), [("torn", {})])
        torn.fn = None
        # A gauge must not raise: both read nan (null in the snapshot).
        assert registry.snapshot() == {"bad": None, "torn": None}

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.source(lambda: (float("inf"), 0.01), [("g", {}), ("h", {})])
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot == {"g": None, "h": 0.01}  # inf -> null


class TestTelemetrySampler:
    def test_series_align_with_shared_time_axis(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.source(lambda: (sim.now,), [("a", {})])
        sampler = TelemetrySampler(sim, registry, interval=0.1)
        sampler.start()
        sim.run(until=1.0)
        series = sampler.series()
        assert len(sampler.times) == len(series["a"])
        assert sampler.times[0] == 0.0
        assert series["a"] == sampler.times  # gauge reads the clock

    def test_late_gauge_is_nan_backfilled(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.source(lambda: (1.0,), [("early", {})])
        sampler = TelemetrySampler(sim, registry, interval=0.1)
        sampler.start()
        sim.at(0.55, lambda: registry.source(lambda: (2.0,), [("late", {})]))
        sim.run(until=1.0)
        series = sampler.series()
        assert len(series["late"]) == len(sampler.times)
        n_padded = sum(1 for v in series["late"] if math.isnan(v))
        assert 0 < n_padded < len(sampler.times)
        assert series["late"][-1] == 2.0

    def test_decimation_bounds_memory_and_doubles_interval(self):
        sim = Simulator()
        registry = MetricsRegistry()
        registry.source(lambda: (1.0,), [("g", {})])
        sampler = TelemetrySampler(sim, registry, interval=0.01,
                                   max_samples=64)
        sampler.start()
        sim.run(until=10.0)  # 1000 naive samples >> max_samples
        assert len(sampler.times) <= 64
        assert sampler.decimations >= 1
        assert sampler.interval > sampler.initial_interval
        # Decimated series stay aligned and span the whole run.
        assert len(sampler.series()["g"]) == len(sampler.times)
        assert sampler.times[-1] > 9.0

    def test_decimation_at_exact_max_samples_boundary(self):
        """The max_samples-th sample (not one more) triggers decimation."""
        sim = Simulator()
        registry = MetricsRegistry()
        registry.source(lambda: (1.0,), [("g", {})])
        sampler = TelemetrySampler(sim, registry, interval=0.01,
                                   max_samples=8)
        for _ in range(7):
            sampler.sample_once()
        assert sampler.decimations == 0
        assert len(sampler.times) == 7
        sampler.sample_once()  # the boundary sample
        assert sampler.decimations == 1
        assert len(sampler.times) == 4  # 8 stored, halved in place
        assert sampler.interval == 2 * sampler.initial_interval
        assert len(sampler.series()["g"]) == len(sampler.times)

    def test_late_gauge_backfilled_across_decimation(self):
        """A gauge registered after a decimation still aligns.

        Backfill length must match the *decimated* time axis, not the
        raw sample count — the known-untested edge of late
        registration.
        """
        sim = Simulator()
        registry = MetricsRegistry()
        registry.source(lambda: (1.0,), [("early", {})])
        sampler = TelemetrySampler(sim, registry, interval=0.01,
                                   max_samples=16)
        sampler.start()
        # Register mid-run, after at least one decimation has halved
        # the stored series.
        sim.at(0.5, lambda: registry.source(lambda: (2.0,), [("late", {})]))
        sim.run(until=1.0)
        assert sampler.decimations >= 1
        series = sampler.series()
        assert len(series["late"]) == len(sampler.times)
        assert len(series["early"]) == len(sampler.times)
        assert series["late"][-1] == 2.0
        assert math.isnan(series["late"][0])

    def test_bound_series_survive_registration_failure_and_decimation(self):
        """One run through everything the pre-bound tick must keep: a
        gauge registered mid-run, one whose callback raises, one torn
        down mid-run, one re-registered under the same key, and a
        decimation crossing."""
        sim = Simulator()
        registry = MetricsRegistry()
        registry.source(lambda: (sim.now,), [("clock", {})])
        registry.source(lambda: 1 / 0, [("torn", {})])
        closed = registry.source(lambda: (7,), [("closed", {})])
        sampler = TelemetrySampler(sim, registry, interval=0.01,
                                   max_samples=16)
        sampler.start()
        sim.at(0.035, lambda: setattr(closed, "fn", None))
        late = [("late", {})]
        sim.at(0.055, lambda: registry.source(lambda: (2.0,), late))
        sim.at(0.075, lambda: registry.source(lambda: (3.0,), late))
        sim.run(until=0.5)
        assert sampler.decimations >= 1
        series = sampler.series()
        assert list(series) == ["clock", "torn", "closed", "late"]
        assert all(len(values) == len(sampler.times)
                   for values in series.values())
        assert series["clock"] == sampler.times
        assert all(math.isnan(v) for v in series["torn"])
        assert series["closed"][0] == 7.0 and math.isnan(series["closed"][-1])
        assert math.isnan(series["late"][0]) and series["late"][-1] == 3.0
        exported = sampler.export()["series"]
        assert set(exported["torn"]) == {None}  # nan exports as null
        assert exported["clock"] == sampler.times
        json.dumps(exported, allow_nan=False)

    def test_unregistered_connection_reads_nan_and_is_released(self):
        import gc
        import weakref

        class Conn:
            class cc:
                cwnd, ssthresh = 10, 20

            class rto:
                rto = 0.2

            flight_size = 3

        sim = Simulator()
        telemetry = Telemetry(sim)
        conn = Conn()
        telemetry.register_connection(conn, "c0")
        telemetry.start()
        sim.at(0.12, lambda: telemetry.unregister_connection(conn))
        sim.run(until=0.3)
        cwnd = telemetry.sampler.series()["tcp.cwnd{conn=c0}"]
        assert len(cwnd) == len(telemetry.sampler.times)
        assert cwnd[0] == 10.0 and math.isnan(cwnd[-1])
        # The sampler's binding holds the gauge, not the connection.
        ref = weakref.ref(conn)
        del conn
        gc.collect()
        assert ref() is None

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TelemetrySampler(sim, MetricsRegistry(), interval=0.0)
        with pytest.raises(ValueError):
            TelemetrySampler(sim, MetricsRegistry(), max_samples=2)


class TestFlightRecorder:
    def test_per_flow_rings_are_bounded(self):
        recorder = FlightRecorder(ring_size=4, max_flows=8)
        for index in range(20):
            recorder.record(float(index), "gw", "event", {"flow": "a"})
        assert len(recorder) == 4
        assert recorder.events_seen == 20
        dump = recorder.dump()
        assert [event["time"] for event in dump] == [16.0, 17.0, 18.0, 19.0]

    def test_chatty_flow_cannot_evict_another(self):
        recorder = FlightRecorder(ring_size=4, max_flows=8)
        recorder.record(0.0, "gw", "rare", {"flow": "quiet"})
        for index in range(100):
            recorder.record(1.0 + index, "gw", "spam", {"flow": "noisy"})
        events = {event["event"] for event in recorder.dump()}
        assert "rare" in events

    def test_flowless_events_group_by_source(self):
        recorder = FlightRecorder(ring_size=2, max_flows=8)
        recorder.record(0.0, "encoder-gw", "a")
        recorder.record(1.0, "decoder-gw", "b")
        recorder.record(2.0, "encoder-gw", "c")
        recorder.record(3.0, "encoder-gw", "d")
        events = [event["event"] for event in recorder.dump()]
        assert events == ["b", "c", "d"]  # encoder ring dropped "a"

    def test_flow_count_bounded_by_overflow_ring(self):
        recorder = FlightRecorder(ring_size=8, max_flows=2)
        for index in range(10):
            recorder.record(float(index), "gw", "e", {"flow": f"f{index}"})
        # 2 dedicated rings + 1 shared overflow ring, all bounded.
        assert len(recorder) <= 8 * 3

    def test_dump_merges_in_time_order_with_limit(self):
        recorder = FlightRecorder(ring_size=8, max_flows=8)
        recorder.record(2.0, "b", "second")
        recorder.record(1.0, "a", "first")
        recorder.record(3.0, "a", "third")
        dump = recorder.dump()
        assert [event["event"] for event in dump] == ["first", "second",
                                                      "third"]
        assert [e["event"] for e in recorder.dump(max_events=2)] == [
            "second", "third"]


class TestTelemetryFacade:
    def test_export_schema_and_validation(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        telemetry.registry.source(lambda: (1.0,), [("g", {})])
        telemetry.start()
        sim.run(until=0.5)
        export = telemetry.export(reason="completed")
        validate_telemetry(export)
        assert export["schema"] == "telemetry/v1"
        assert export["flight_recorder"] == []  # clean completion

    def test_export_dumps_recorder_on_post_mortem_reason(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        telemetry.recorder.record(0.0, "gw", "drop_undecodable",
                                  {"packet_id": 1})
        export = telemetry.export(reason="stall")
        assert len(export["flight_recorder"]) == 1
        assert export["flight_recorder_events_seen"] == 1
        validate_telemetry(export)

    def test_validate_rejects_misaligned_series(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        telemetry.registry.source(lambda: (1.0,), [("g", {})])
        export = telemetry.export()
        export["sampler"]["series"]["g"].append(1.0)
        with pytest.raises(ValueError):
            validate_telemetry(export)

    def test_telemetry_if(self):
        sim = Simulator()
        assert telemetry_if(False, sim) is None
        telemetry = telemetry_if(True, sim, per_connection=False)
        assert isinstance(telemetry, Telemetry)
        assert telemetry.config.per_connection is False

    def test_node_note_feeds_recorder(self):
        sim = Simulator()
        telemetry = Telemetry(sim)
        node = Node(sim, "encoder-gw")
        node.note("encode", packet_id=3)        # no recorder: dropped
        node.recorder = telemetry.recorder
        sim.at(1.5, lambda: node.note("encode", packet_id=4))
        sim.run()
        assert telemetry.recorder.events_seen == 1
        assert telemetry.recorder.dump() == [
            {"time": 1.5, "source": "encoder-gw", "event": "encode",
             "detail": {"packet_id": 4}}]


class TestObserversDoNotCrossTalk:
    """Spans annotate the flight recorder's rows with trace/span ids."""

    def test_flight_recorder_dump_still_carries_the_span_ids(self):
        from repro.metrics.spans import SpanRecorder

        sim = Simulator()
        recorder = Telemetry(sim).recorder
        recorder.spans = SpanRecorder(sim=sim)
        node = Node(sim, "gw")
        node.recorder = recorder
        span = recorder.spans.packet_begin("encode", "gw", 7)
        node.note("encode", packet_id=7)
        recorder.spans.end(span)
        node.note("idle")
        assert recorder.dump() == [
            {"time": 0.0, "source": "gw", "event": "encode",
             "detail": {"packet_id": 7, "trace": 1, "span": 1}},
            {"time": 0.0, "source": "gw", "event": "idle", "detail": {}},
        ]

    def test_caller_supplied_trace_is_kept(self):
        from repro.metrics.spans import SpanRecorder

        recorder = FlightRecorder()
        recorder.spans = SpanRecorder()
        recorder.spans.packet_begin("encode", "gw", 1)
        recorder.record(0.0, "verify", "violation", {"trace": 9, "span": 4})
        assert recorder.dump()[0]["detail"] == {"trace": 9, "span": 4}


class TestEndToEnd:
    def test_disabled_run_carries_no_telemetry(self):
        result = run_transfer(ExperimentConfig(file_size=20 * 1460))
        assert result.telemetry is None

    def test_enabled_run_exports_expected_series(self):
        result = run_transfer(ExperimentConfig(
            file_size=40 * 1460, loss_rate=0.01, telemetry=True))
        export = result.telemetry
        validate_telemetry(export)
        assert export["reason"] == "completed"
        keys = export["sampler"]["series"]
        for expected in ("tcp.cwnd{conn=server:80}",
                         "tcp.rto{conn=server:80}",
                         "tcp.inflight{conn=server:80}",
                         "dre.perceived_loss",
                         "cache.entries{gw=encoder}",
                         "cache.entries{gw=decoder}",
                         "link.queue_depth{link=bottleneck-fwd}"):
            assert expected in keys, expected
        json.dumps(export)  # must be a plain JSON document

    def test_two_fetches_keep_two_server_series(self):
        """Every accepted connection gets its own ``tcp.*`` series (the
        first keeps ``server:80``), and pruning one blanks only its own."""
        from repro.experiments.runner import (FILE_NAME, Fetch,
                                              build_testbed, run_fetches)

        config = ExperimentConfig(file_size=10 * 1460, telemetry=True)
        testbed = build_testbed(config)
        data = bytes(range(256)) * 57
        run_fetches(testbed, config, {FILE_NAME: data},
                    [Fetch(), Fetch(gap=0.05)])
        registry = testbed.telemetry.registry
        cwnd = sorted(key for key in registry.snapshot()
                      if key.startswith("tcp.cwnd{"))
        assert cwnd == ["tcp.cwnd{conn=client:49152}",
                        "tcp.cwnd{conn=client:49153}",
                        "tcp.cwnd{conn=server:80#2}",
                        "tcp.cwnd{conn=server:80}"]
        first, second = testbed.server_stack.connections()
        assert testbed.server_stack.release(first)
        snapshot = registry.snapshot()
        assert snapshot["tcp.cwnd{conn=server:80}"] is None
        assert snapshot["tcp.cwnd{conn=server:80#2}"] == second.cc.cwnd > 0

    def test_naive_stall_dumps_flight_recorder(self):
        result = run_transfer(ExperimentConfig(
            policy="naive", file_size=60 * 1460, loss_rate=0.05,
            telemetry=True, seed=11,
            time_limit=120.0, tcp_max_retries=8, tcp_max_rto=2.0))
        assert not result.completed
        export = result.telemetry
        assert export["reason"] in ("stall", "time_limit")
        events = {event["event"] for event in export["flight_recorder"]}
        # The §IV-B livelock signature: retransmissions encoded against
        # undelivered packets, each dropped as undecodable.
        assert "drop_undecodable" in events

    def test_resilience_run_exports_epoch_series(self):
        result = run_transfer(ExperimentConfig(
            file_size=20 * 1460, telemetry=True, resilience=True))
        keys = result.telemetry["sampler"]["series"]
        assert "cache.epoch{gw=encoder}" in keys
        assert "resilience.resyncing{gw=decoder}" in keys
        assert "resilience.degraded{gw=encoder}" in keys

    def test_telemetry_survives_result_round_trip(self):
        """Through the pickle a worker process returns a result by, and
        through the plain-dict export."""
        result = run_transfer(ExperimentConfig(
            file_size=20 * 1460, telemetry=True))
        assert pickle.loads(pickle.dumps(result)).telemetry == \
            result.telemetry
        exported = json.loads(json.dumps(result.to_dict()))
        assert exported["telemetry"] == result.telemetry

    def test_deterministic_across_runs(self):
        config = ExperimentConfig(file_size=20 * 1460, loss_rate=0.02,
                                  telemetry=True, seed=7)
        first = run_transfer(config).telemetry
        second = run_transfer(config).telemetry
        assert first["sampler"] == second["sampler"]
        assert first["counters"] == second["counters"]


class TestSweepExport:
    def test_bench_telemetry_json_and_jsonl(self, tmp_path):
        from repro.experiments.sweep import (SweepSpec, run_sweep,
                                             validate_bench_telemetry,
                                             write_telemetry_export)

        spec = SweepSpec(
            base=ExperimentConfig(file_size=20 * 1460, telemetry=True),
            grid={"loss_rate": [0.0, 0.01]})
        swept = run_sweep(spec)

        json_path = tmp_path / "tele.json"
        payload = write_telemetry_export(swept, str(json_path), name="t")
        validate_bench_telemetry(payload)
        on_disk = json.loads(json_path.read_text())
        validate_bench_telemetry(on_disk)
        assert on_disk["summary"]["with_telemetry"] == 2

        jsonl_path = tmp_path / "tele.jsonl"
        write_telemetry_export(swept, str(jsonl_path), name="t")
        rows = [json.loads(line)
                for line in jsonl_path.read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            validate_bench_telemetry(row)

    def test_validator_rejects_garbage(self):
        from repro.experiments.sweep import validate_bench_telemetry

        with pytest.raises(ValueError):
            validate_bench_telemetry({"schema": "bench_sweep/v1"})
        with pytest.raises(ValueError):
            validate_bench_telemetry({"schema": "bench_telemetry/v1"})
