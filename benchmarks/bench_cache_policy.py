"""Ablation — cache eviction: FIFO (the paper's sliding window) vs LRU.

With a cache smaller than the working set, eviction policy decides
which redundancy survives.  The webpage-session corpus revisits its
template on every page, so LRU should retain it while FIFO cycles it
out; File 1's redundancy is strictly recent-past, where FIFO and LRU
coincide.
"""

from conftest import print_report

from repro.experiments import ExperimentConfig, SweepSpec, run_sweep
from repro.metrics import format_table


def measure():
    swept = run_sweep(SweepSpec(
        base=ExperimentConfig(policy="cache_flush", seed=11),
        grid={"corpus,cache_max_packets": [("file1", 12), ("webpages", 12)],
              "cache_eviction": ["fifo", "lru"]}))
    rows = {}
    for cell in swept:
        label = (f"{cell.params['corpus']} "
                 f"(cache={cell.params['cache_max_packets']} pkts)")
        rows.setdefault(label, [label]).append(
            cell.result.forward_bytes_on_link)
    return list(rows.values())


def test_cache_eviction_ablation(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_report("Ablation — cache eviction policy", format_table(
        "bytes on the constrained link, tiny cache, clean channel",
        ["workload", "FIFO (paper)", "LRU"], rows))
    for row in rows:
        assert row[1] > 0 and row[2] > 0
    # On the template-revisiting workload LRU must not do worse than
    # FIFO by more than noise.
    webpages = [row for row in rows if row[0].startswith("webpages")][0]
    assert webpages[2] <= webpages[1] * 1.05
