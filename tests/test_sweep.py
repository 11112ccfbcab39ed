"""The sweep engine: grids, hashing, parallel determinism."""

import json

import pytest

from repro.core.policies.cache_flush import CacheFlushPolicy
from repro.experiments import ExperimentConfig, run_transfer
from repro.experiments.sweep import (SweepSpec, config_hash, parallel_map,
                                     run_sweep, write_bench_json)

# Small object so every transfer finishes in a few hundred sim-events.
FILE_SIZE = 30 * 1460


def small_spec(paired=True):
    return SweepSpec(
        base=ExperimentConfig(corpus="file1", file_size=FILE_SIZE),
        grid={"policy": ["cache_flush"], "loss_rate": [0.0, 0.02]},
        seeds=(11, 23),
        paired_baseline=paired)


class TestSpec:
    def test_cells_enumerate_in_grid_product_order(self):
        spec = SweepSpec(
            base=ExperimentConfig(),
            grid={"policy": ["a", "b"], "loss_rate": [0.0, 0.1]},
            seeds=(1, 2))
        cells = list(spec.cells())
        assert len(cells) == 8
        assert [c.index for c in cells] == list(range(8))
        # policy is the outer axis, loss next, seeds innermost.
        assert [(c.params["policy"], c.params["loss_rate"], c.seed)
                for c in cells[:4]] == [
            ("a", 0.0, 1), ("a", 0.0, 2), ("a", 0.1, 1), ("a", 0.1, 2)]
        assert cells[0].config.policy == "a"
        assert cells[0].config.seed == 1

    def test_comma_joined_keys_assign_fields_together(self):
        spec = SweepSpec(
            base=ExperimentConfig(),
            grid={"policy,policy_kwargs": [("cache_flush", {}),
                                           ("k_distance", {"k": 8})]})
        cells = list(spec.cells())
        assert len(cells) == 2
        assert cells[1].config.policy == "k_distance"
        assert cells[1].config.policy_kwargs == {"k": 8}
        # No seeds given: the base config's seed is kept.
        assert cells[0].seed == ExperimentConfig().seed

    def test_cells_differing_in_kwargs_carry_distinct_params(self):
        spec = SweepSpec(
            base=ExperimentConfig(),
            grid={"policy,policy_kwargs": [("k_distance", {"k": 8}),
                                           ("k_distance", {"k": 16})]})
        assert [cell.params for cell in spec.cells()] == [
            {"policy": "k_distance", "policy_kwargs": {"k": 8}},
            {"policy": "k_distance", "policy_kwargs": {"k": 16}}]


class TestConfigHash:
    def test_equal_configs_hash_equal(self):
        a = ExperimentConfig(loss_rate=0.05, policy_kwargs={"k": 8})
        b = ExperimentConfig(policy_kwargs={"k": 8}, loss_rate=0.05)
        assert config_hash(a) == config_hash(b)

    def test_any_field_change_changes_the_hash(self):
        base = ExperimentConfig()
        assert config_hash(base) != config_hash(base.with_updates(seed=1))
        assert config_hash(base) != config_hash(
            base.with_updates(policy_kwargs={"k": 8}))


class TestRunSweep:
    def test_parallel_is_bit_identical_to_serial(self):
        spec = small_spec()
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        assert len(serial.cells) == len(parallel.cells) == 4
        for a, b in zip(serial.cells, parallel.cells):
            assert a.config_hash == b.config_hash
            assert a.result == b.result
            assert a.baseline == b.baseline

    def test_baselines_are_shared_across_cells(self):
        swept = run_sweep(small_spec())
        # 4 DRE cells + 4 distinct (loss, seed) baselines.
        assert swept.executed == 8
        for cell in swept:
            assert cell.baseline is not None
            assert cell.baseline.policy == "none"
            assert cell.ratio_point(cell.params["loss_rate"]).bytes_ratio > 0

    def test_rerun_simulates_the_code_that_is_running(self, monkeypatch):
        """A sweep re-run never serves an earlier run's result.

        The same spec runs twice in one process.  Between the runs Cache
        Flush loses its flush (the gate ``verify.fuzz``'s
        ``cache_flush_gate`` removes), so the second run must show the
        §IV livelock the first run's healthy cell would have hidden.
        """
        spec = SweepSpec(
            base=ExperimentConfig(corpus="file1"),
            grid={"policy": ["cache_flush"], "loss_rate": [0.02]},
            seeds=(11,), paired_baseline=True)
        assert run_sweep(spec).cells[0].result.completed
        monkeypatch.setattr(CacheFlushPolicy, "before_packet",
                            lambda self, meta, cache: None)
        assert not run_sweep(spec).cells[0].result.completed

    def test_cells_carry_their_coordinates(self):
        spec = small_spec(paired=False)
        swept = run_sweep(spec)
        assert [(cell.params, cell.seed) for cell in swept] == [
            (cell.params, cell.seed) for cell in spec.cells()]
        for cell, planned in zip(swept, spec.cells()):
            assert cell.config_hash == config_hash(planned.config)
            assert cell.result.policy == planned.params["policy"]
            assert cell.baseline is None

    def test_pooled_groups_seeds_by_params(self):
        swept = run_sweep(small_spec(paired=False))
        groups = swept.pooled("loss_rate")
        assert list(groups) == [(0.0,), (0.02,)]
        for (loss,), group in groups.items():
            assert [cell.seed for cell in group] == [11, 23]
            assert {cell.params["loss_rate"] for cell in group} == {loss}
        assert list(swept.pooled("policy", "loss_rate")) == [
            ("cache_flush", 0.0), ("cache_flush", 0.02)]

    def test_no_dre_cell_gets_no_twin(self):
        """The twin of a run without DRE would be the run itself."""
        swept = run_sweep(SweepSpec(
            base=ExperimentConfig(corpus="file1", file_size=FILE_SIZE,
                                  policy=None),
            paired_baseline=True))
        assert swept.executed == 1
        (cell,) = swept
        assert cell.baseline is None and cell.baseline_hash is None
        with pytest.raises(ValueError):
            cell.ratio_point(0.0)


def _square(value):
    return value * value


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(10))
        assert parallel_map(_square, items) == [v * v for v in items]
        assert parallel_map(_square, items, workers=2) == [v * v
                                                           for v in items]


class TestBenchJson:
    def test_schema_and_history(self, tmp_path):
        swept = run_sweep(small_spec(paired=False))
        path = tmp_path / "BENCH_sweep.json"
        write_bench_json(swept, str(path), name="unit")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "bench_sweep/v2"
        assert payload["name"] == "unit"
        assert payload["summary"]["cells"] == 4
        for cell in payload["cells"]:
            assert set(cell) >= {"params", "seed", "config_hash",
                                 "elapsed", "metrics"}
            assert "bytes_on_link" in cell["metrics"]
        # A second write replaces the first: one run's document, no
        # history of earlier runs.
        write_bench_json(swept, str(path), name="again")
        payload = json.loads(path.read_text())
        assert set(payload) == {"schema", "name", "cells", "summary"}
        assert payload["name"] == "again"


class TestProfileCollection:
    def test_profile_lands_in_result_when_enabled(self):
        config = ExperimentConfig(corpus="file1", file_size=FILE_SIZE,
                                  policy="cache_flush", profile=True)
        result = run_transfer(config)
        assert result.profile is not None
        for stage in ("fingerprint", "cache_ops"):
            assert result.profile[stage]["calls"] > 0
            assert result.profile[stage]["seconds"] >= 0.0
        # Every anchors() call of the run is a memo hit or a miss.
        memo = result.profile["anchor_memo"]
        assert set(memo) == {"hits", "misses", "evictions", "bytes"}
        assert memo["hits"] + memo["misses"] == (
            result.profile["fingerprint"]["calls"]
            + result.profile["decode_fingerprint"]["calls"])
        assert memo["bytes"] > 0

    def test_decoder_books_under_its_own_stage_names(self):
        """One profiler serves both cores of a pair; every encoder stage
        must count encoded packets only, not the decoder's accepts."""
        result = run_transfer(ExperimentConfig(
            policy="cache_flush", loss_rate=0.05, seed=0, corpus_seed=0,
            profile=True))
        calls = {stage: entry["calls"]
                 for stage, entry in result.profile.items()
                 if stage != "anchor_memo"}
        encoded = result.encoder_stats.data_packets
        assert encoded > result.decoder_stats.decoded_ok > 0  # 5 % loss
        for stage in ("fingerprint", "table_probe", "region_expand",
                      "wire_pack", "cache_ops"):
            assert calls[stage] == encoded
        for stage in ("decode_fingerprint", "decode_cache_ops"):
            assert calls[stage] == result.decoder_stats.decoded_ok

    def test_profile_is_none_by_default(self):
        result = run_transfer(ExperimentConfig(corpus="file1",
                                               file_size=FILE_SIZE,
                                               policy="cache_flush"))
        assert result.profile is None
