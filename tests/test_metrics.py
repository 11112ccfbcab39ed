"""Tests for metric aggregation, profiling, and report formatting."""

import math

import pytest

from repro.app.transfer import TransferOutcome
from repro.metrics import (Aggregate, RatioPoint, Series, StageProfiler,
                           TransferResult, format_series, format_table,
                           format_timeseries, profiler_if)
from repro.metrics.report import format_flight_recorder
from repro.sim.link import LinkStats


class TestAggregate:
    def test_mean_std(self):
        aggregate = Aggregate(x=1.0, values=[1.0, 2.0, 3.0])
        assert aggregate.mean == 2.0
        assert aggregate.std == pytest.approx(1.0)
        assert aggregate.n == 3

    def test_empty_is_nan(self):
        aggregate = Aggregate(x=1.0)
        assert math.isnan(aggregate.mean)

    def test_single_value_has_no_spread_information(self):
        # One sample tells you nothing about dispersion: 0.0 would read
        # as "measured, no uncertainty", so the spread stats are nan.
        aggregate = Aggregate(x=1.0, values=[5.0])
        assert math.isnan(aggregate.std)
        assert math.isnan(aggregate.stderr)
        assert math.isnan(aggregate.ci95)
        assert aggregate.mean == 5.0  # the mean itself is well-defined

    def test_empty_spread_is_nan(self):
        aggregate = Aggregate(x=1.0)
        assert math.isnan(aggregate.std)
        assert math.isnan(aggregate.ci95)

    def test_add_skips_none_and_nan(self):
        aggregate = Aggregate(x=1.0)
        aggregate.add(None)
        aggregate.add(float("nan"))
        aggregate.add(2.0)
        assert aggregate.values == [2.0]


class TestSeries:
    def test_point_creates_and_reuses(self):
        series = Series("s")
        a = series.point(1.0)
        b = series.point(1.0)
        assert a is b
        series.point(2.0)
        assert series.xs() == [1.0, 2.0]


class TestReports:
    def test_format_table_alignment(self):
        text = format_table("T", ["col_a", "b"], [["x", 1], ["longer", 2.5]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col_a" in lines[2]
        assert "longer" in lines[-1]
        assert "2.500" in lines[-1]

    def test_format_series_merges_xs(self):
        a = Series("a")
        a.point(1.0).add(10.0)
        b = Series("b")
        b.point(2.0).add(20.0)
        text = format_series("S", "x", [a, b])
        assert "10.000" in text
        assert "20.000" in text
        assert text.count("—") > 0  # missing cells rendered as em-dashes

    def test_format_series_shows_ci_with_multiple_samples(self):
        series = Series("s")
        series.point(1.0).add(10.0)
        series.point(1.0).add(12.0)
        assert "±" in format_series("S", "x", [series])

    def test_format_series_single_sample_has_no_ci(self):
        series = Series("s")
        series.point(1.0).add(10.0)
        text = format_series("S", "x", [series])
        assert "±" not in text
        assert "nan" not in text

    def test_format_table_empty_rows(self):
        text = format_table("Empty", ["a", "b"], [])
        lines = text.splitlines()
        assert lines[0] == "Empty"
        assert len(lines) == 4  # title, rule, headers, divider — no rows
        assert "a" in lines[2] and "b" in lines[2]

    def test_format_table_non_string_cells(self):
        text = format_table("T", ["k", "v"],
                            [[None, 1], [True, 2.5], [(1, 2), b"x"]])
        assert "None" in text
        assert "True" in text
        assert "2.500" in text
        assert "(1, 2)" in text

    def test_format_table_renders_nan_as_dash(self):
        text = format_table("T", ["v"], [[float("nan")]])
        assert "—" in text
        assert "nan" not in text


class TestStageProfiler:
    def test_unknown_stage_names_are_allowed(self):
        profiler = StageProfiler()
        profiler.add("custom_stage", 0.5)
        assert profiler.as_dict()["custom_stage"]["seconds"] == 0.5
        # Unknown stages sort after the canonical ones.
        profiler.add("decode_cache_ops", 0.1)
        order = [stage for stage, _, _ in profiler.stages()]
        assert order == ["decode_cache_ops", "custom_stage"]

    def test_as_dict_round_trips_through_stages(self):
        profiler = StageProfiler()
        profiler.add("fingerprint", 0.5)
        profiler.add("fingerprint", 0.5)
        snapshot = profiler.as_dict()
        assert snapshot["fingerprint"]["seconds"] == 1.0
        assert snapshot["fingerprint"]["calls"] == 2.0

    def test_profiler_if(self):
        assert profiler_if(False) is None
        assert isinstance(profiler_if(True), StageProfiler)


class TestTimeseriesRendering:
    def test_chart_shows_range_and_trajectory(self):
        times = [i * 0.1 for i in range(40)]
        values = [float(i) for i in range(40)]
        text = format_timeseries("tcp.cwnd", times, values,
                                 width=40, height=6)
        assert "tcp.cwnd" in text
        assert "min 0" in text
        assert "max 39" in text
        assert "last 39" in text

    def test_none_and_nan_samples_are_skipped(self):
        times = [0.0, 1.0, 2.0, 3.0]
        values = [None, float("nan"), 5.0, 7.0]
        text = format_timeseries("g", times, values)
        assert "min 5" in text
        assert "max 7" in text

    def test_header_reads_the_samples_not_the_bucket_means(self):
        """Two samples share the last column: the axis tops out at their
        mean, while the header's max and last are the raw samples."""
        times = [float(i) for i in range(10)]
        values = [float(i) for i in range(10)]
        text = format_timeseries("g", times, values, width=8, height=4)
        assert text.splitlines()[0] == "g   [min 0  max 9  last 9]"
        assert text.splitlines()[1].startswith("  8.5 |")

    @pytest.mark.parametrize("width, ticks", [
        (4, "0  9"), (2, "0")])
    def test_narrow_chart_draws_the_width_asked_for(self, width, ticks):
        """Below 8 columns the chart keeps the width asked for; the time
        labels keep a space between them, or the right one is dropped."""
        times = [float(i) for i in range(10)]
        lines = format_timeseries("g", times, times, width=width,
                                  height=3).splitlines()
        assert [len(line.split("|")[1]) for line in lines[1:4]] == [width] * 3
        assert lines[4].endswith("+" + "-" * width)
        assert lines[5].strip() == f"{ticks}  (sim seconds)"
        wide_labels = format_timeseries("g", [t * 0.2 for t in times],
                                        times, width=width).splitlines()
        assert wide_labels[-1].strip() == "0  (sim seconds)"

    def test_all_missing_series(self):
        text = format_timeseries("g", [0.0, 1.0], [None, None])
        assert "(no samples)" in text

    def test_constant_series_does_not_divide_by_zero(self):
        text = format_timeseries("g", [0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        assert "min 3" in text and "max 3" in text

    def test_flight_recorder_table(self):
        events = [{"time": 1.5, "source": "decoder-gw",
                   "event": "drop_undecodable",
                   "detail": {"packet_id": 7, "missing": 2}},
                  {"time": 2.0, "source": "encoder-gw", "event": "encode",
                   "detail": {}}]
        text = format_flight_recorder(events)
        assert "drop_undecodable" in text
        assert "packet_id=7" in text
        assert "1.500000" in text


def make_result(bytes_offered=1000, duration=2.0, **kwargs):
    outcome = TransferOutcome(name="o", expected_size=100,
                              bytes_received=100, started_at=0.0,
                              finished_at=duration)
    outcome.completed = True
    forward = LinkStats(bytes_offered=bytes_offered, packets_offered=10)
    return TransferResult(outcome=outcome, bottleneck_forward=forward,
                          bottleneck_reverse=LinkStats(), **kwargs)


class TestTransferResult:
    def test_perceived_loss_without_gateways_is_channel_loss(self):
        result = make_result()
        result.bottleneck_forward.packets_lost = 2
        assert result.perceived_loss_rate == pytest.approx(0.2)

    def test_perceived_loss_with_gateways(self):
        from repro.gateway.middlebox import GatewayStats

        result = make_result(
            encoder_stats=GatewayStats(data_packets=100),
            decoder_stats=GatewayStats(decoded_ok=80))
        assert result.perceived_loss_rate == pytest.approx(0.2)

    def test_ratio_point(self):
        dre = make_result(bytes_offered=550, duration=1.5)
        baseline = make_result(bytes_offered=1000, duration=2.0)
        point = RatioPoint.from_results(0.05, dre, baseline)
        assert point.bytes_ratio == pytest.approx(0.55)
        assert point.delay_ratio == pytest.approx(0.75)

    def test_ratio_point_stalled_dre(self):
        dre = make_result(bytes_offered=550, duration=2.0)
        dre.outcome.finished_at = None
        baseline = make_result()
        point = RatioPoint.from_results(0.05, dre, baseline)
        assert point.delay_ratio is None


class TestStageAccounting:
    """The profiler's stage totals must account for the wall time."""

    def test_batch_stages_are_canonical(self):
        from repro.metrics.profiling import STAGES

        for stage in ("fingerprint", "table_probe", "region_expand",
                      "wire_pack", "cache_ops"):
            assert stage in STAGES

    def test_stage_totals_sum_to_wall_time(self):
        import random
        import time as _time

        from repro.core.cache import ByteCache
        from repro.core.encoder import ByteCachingEncoder
        from repro.core.fingerprint import FingerprintScheme
        from repro.core.policies import PacketMeta, make_policy_pair
        from repro.workload.corpus import corpus_object

        rnd = random.Random(0xBC)
        fresh = [rnd.randbytes(1460) for _ in range(24)]
        data = corpus_object("file1", seed=3)
        cold = [data[i: i + 1460]
                for i in range(0, len(data), 1460)][:48]
        packets = fresh + cold + cold
        metas = [PacketMeta(packet_id=i, flow=("t", 0),
                            tcp_seq=i * 1460, counter=i)
                 for i in range(len(packets))]
        scheme = FingerprintScheme(window=16, zero_bits=4)
        policy, _ = make_policy_pair("naive")
        encoder = ByteCachingEncoder(scheme, ByteCache(1 << 24), policy)
        for payload, meta in zip(packets, metas):   # warm allocators
            encoder.encode(payload, meta)
        profiler = StageProfiler()
        encoder.profiler = profiler
        started = _time.perf_counter()
        for payload, meta in zip(packets, metas):
            encoder.encode(payload, meta)
        wall = _time.perf_counter() - started
        for stage in ("fingerprint", "table_probe",
                      "region_expand", "wire_pack", "cache_ops"):
            assert profiler.counts.get(stage, 0) > 0, stage
        stage_sum = sum(total for _, total, _ in profiler.stages())
        # The stages tile the encode pass: only loop glue is untimed, so
        # the sum must land within tolerance of the measured wall time
        # (and never exceed it beyond timer resolution).
        assert stage_sum <= wall * 1.05
        assert stage_sum >= wall * 0.65, (
            f"stages cover only {stage_sum / wall:.0%} of wall time")
