"""Tests for the paper-artifact scenario layer (reduced parameters)."""

from repro.experiments import scenarios
from repro.workload.corpus import corpus_object


class TestOfflineRatio:
    def test_redundant_data_compresses(self):
        data = corpus_object("file1", size=120 * 1460, seed=3)
        ratio = scenarios.offline_compression_ratio(data)
        assert 0.3 < ratio < 0.8

    def test_cache_window_limits_savings(self):
        data = corpus_object("file1", size=120 * 1460, seed=3)
        tiny = scenarios.offline_compression_ratio(data, cache_packets=2)
        full = scenarios.offline_compression_ratio(data)
        assert tiny > full

    def test_random_data_ratio_near_one(self):
        data = corpus_object("random", size=60 * 1460, seed=3)
        assert scenarios.offline_compression_ratio(data) > 0.99


class TestTable1:
    def test_rows_and_report(self):
        result = scenarios.table1(ks=(10, 100),
                                  objects=("ebook", "webpages"))
        assert len(result.rows) == 4
        report = result.report()
        assert "Table I" in report
        assert "ebook" in report and "webpages" in report

    def test_shapes(self):
        result = scenarios.table1(ks=(10, 1000), objects=("ebook", "video"))
        savings = {(name, k): s for name, k, s in result.rows}
        assert savings[("ebook", 10)] < 0.02
        assert savings[("video", 10)] < 0.02


class TestFigure6:
    def test_small_run(self):
        result = scenarios.figure6(runs=4, loss_rate=0.02)
        assert len(result.fractions) == 4
        assert result.stall_count >= 3
        report = result.report()
        assert "Figure 6" in report
        assert "successful retrievals" in report

    def test_zero_loss_all_succeed(self):
        result = scenarios.figure6(runs=2, loss_rate=0.0)
        assert result.stall_count == 0
        assert result.success_count == 2


class TestRatioScenarios:
    def test_headline(self):
        result = scenarios.headline(seeds=(11,))
        assert 0.2 < result.byte_savings < 0.7
        assert "paper" in result.report()

    def test_table2_small(self):
        result = scenarios.table2(losses=(0.05,), seeds=(11,))
        assert ("Bytes Sent", "cache_flush", 0.05) in result.cells
        report = result.report()
        assert "cache_flush" in report and "k_distance" in report

    def test_table2_reports_the_losses_it_ran(self):
        result = scenarios.table2(losses=(0.02,), seeds=(11,))
        assert result.losses == [0.02]
        rows = [line for line in result.report().splitlines()
                if line.startswith(("Bytes Sent", "Delay"))]
        assert [row.split(")")[0] + ")" for row in rows] == [
            "Bytes Sent (2% loss)", "Delay (2% loss)"]
        for row in rows:                # a number for every policy
            assert len(row.split(")")[1].split()) == 3
            assert " - " not in row

    def test_figure10_11_small(self):
        result = scenarios.figure10_11(policies=("cache_flush",),
                                       files=("file1",),
                                       losses=(0.0, 0.02), seeds=(11,))
        assert len(result.bytes_series) == 1
        series = result.bytes_series[0]
        assert series.point(0.0).mean < series.point(0.02).mean
        assert "Figure 10" in result.report_bytes()
        assert "Figure 11" in result.report_delay()

    def test_figure12_small(self):
        result = scenarios.figure12(ks=(2, 16), losses=(0.05,), seeds=(11,))
        bytes5 = result.bytes_series[0]
        assert bytes5.point(16).mean < bytes5.point(2).mean
        assert "Figure 12" in result.report()

    def test_figure13_small(self):
        result = scenarios.figure13(
            policies=(("cache_flush", {}),), losses=(0.0, 0.05), seeds=(11,))
        series = result.series[0]
        assert series.point(0.05).mean > series.point(0.0).mean
        assert "Figure 13" in result.report()

    def test_ablation_small(self):
        result = scenarios.ablation_packet_size(seeds=(11,))
        labels = [label for label, _, _ in result.rows]
        assert "cache_flush" in labels
        assert any("k=8" in label for label in labels)
        assert all(size > 0 for _, size, _ in result.rows)

    def test_impairment_matrix_small(self):
        result = scenarios.impairment_matrix(
            policies=("cache_flush",), kinds=("loss",), rates=(0.02,),
            seeds=(11,))
        completed, delay = result.cells[("cache_flush", "loss", 0.02)]
        assert completed == 1.0
        assert delay is not None and delay > 0
        assert "Impairment matrix" in result.report()

    def test_stall_scaling_small(self):
        result = scenarios.stall_scaling(sizes=(40 * 1024,),
                                         losses=(0.05,), seeds=(11, 23))
        assert 0.0 <= result.stall_by_size[40 * 1024] <= 1.0
        assert result.retrieved_by_loss[0.05] > 0
        assert "stall probability" in result.report()

    def test_extensions_small(self):
        result = scenarios.extensions(losses=(0.0, 0.03), seeds=(11,))
        names = {s.name for s in result.bytes_series}
        assert names == {"ack_gated", "adaptive_k"}
        for series in result.bytes_series:
            assert series.point(0.0).mean < 1.0
