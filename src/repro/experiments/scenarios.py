"""One callable per paper artifact (every table and figure of §III–§VII).

Each scenario returns a small result object carrying both the raw data
and a ``report()`` string shaped like the paper's table/figure, which
the benchmark harness prints.  Loss rates are fractions (0.05 = 5 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cache import ByteCache
from ..core.encoder import ByteCachingEncoder
from ..core.fingerprint import FingerprintScheme
from ..core.policies import make_policy_pair
from ..core.policies.base import PacketMeta
from ..metrics.collectors import RatioPoint, TransferResult
from ..metrics.report import format_series, format_table
from ..metrics.series import Series
from ..workload.corpus import corpus_object
from .config import ExperimentConfig
from .runner import run_transfer
from .sweep import SweepSpec, parallel_map, run_sweep

DEFAULT_LOSS_SWEEP = (0.0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20)
DEFAULT_SEEDS = (11, 23, 37)
MSS = 1460


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def offline_compression_ratio(data: bytes, cache_packets: Optional[int] = None,
                              scheme: Optional[FingerprintScheme] = None,
                              mss: int = MSS) -> float:
    """Bytes-out / bytes-in of the encoder run offline over ``data``.

    This is the trace-style measurement of Table I: no network, the
    cache limited to a window of ``cache_packets`` packets.
    """
    if scheme is None:
        scheme = FingerprintScheme()
    policy, _ = make_policy_pair("naive")
    encoder = ByteCachingEncoder(
        scheme, ByteCache(1 << 30, cache_packets), policy)
    total_out = 0
    for index in range(0, len(data), mss):
        block = data[index: index + mss]
        meta = PacketMeta(packet_id=index, flow=("s", 0, "c", 1),
                          tcp_seq=index, counter=index // mss)
        total_out += encoder.encode(block, meta).bytes_out
    return total_out / max(1, len(data))


@dataclass
class _RatioRuns:
    """Paired-sweep bookkeeping shared by Figures 10-12."""

    bytes_series: Series
    delay_series: Series
    stalls: int = 0
    runs: int = 0

    def add(self, x: float, point: RatioPoint) -> None:
        self.runs += 1
        self.bytes_series.point(x).add(point.bytes_ratio)
        if point.delay_ratio is None:
            self.stalls += 1
        else:
            self.delay_series.point(x).add(point.delay_ratio)


def _paired_ratio(config: ExperimentConfig,
                  baseline_cache: Dict[tuple, TransferResult]) -> RatioPoint:
    """Run a DRE config and its (memoised) no-DRE baseline."""
    key = (config.corpus, config.file_size, config.corpus_seed,
           config.loss_rate, config.corrupt_rate, config.reorder_rate,
           config.seed)
    if key not in baseline_cache:
        baseline_cache[key] = run_transfer(
            config.with_updates(policy=None, policy_kwargs={}))
    dre = run_transfer(config)
    return RatioPoint.from_results(config.loss_rate, dre, baseline_cache[key])


# ---------------------------------------------------------------------------
# Table I — redundancy in web objects
# ---------------------------------------------------------------------------

@dataclass
class Table1Result:
    rows: List[Tuple[str, int, float]]  # (object, k packets, savings fraction)

    def report(self) -> str:
        objects = sorted({row[0] for row in self.rows})
        ks = sorted({row[1] for row in self.rows})
        table_rows = []
        for k in ks:
            cells: List[object] = [k]
            for name in objects:
                savings = [s for o, kk, s in self.rows
                           if o == name and kk == k]
                cells.append(f"{savings[0] * 100:.3f}%" if savings else "-")
            table_rows.append(cells)
        return format_table(
            "Table I — redundancy in web objects (byte savings vs cache "
            "window of k packets)",
            ["k"] + objects, table_rows)


def _table1_cell(job: Tuple[str, int, int]) -> Tuple[str, int, float]:
    """One Table I cell (module-level so it pickles for parallel_map)."""
    name, k, seed = job
    data = corpus_object(name, seed=seed)
    return (name, k, 1.0 - offline_compression_ratio(data, cache_packets=k))


def table1(ks: Sequence[int] = (10, 100, 1000),
           objects: Sequence[str] = ("ebook", "video", "webpages"),
           seed: int = 3,
           workers: Optional[int] = None) -> Table1Result:
    jobs = [(name, k, seed) for name in objects for k in ks]
    return Table1Result(rows=parallel_map(_table1_cell, jobs,
                                          workers=workers))


# ---------------------------------------------------------------------------
# Figure 6 — frequency of TCP connection stalls (naive, 1 % loss)
# ---------------------------------------------------------------------------

@dataclass
class Figure6Result:
    fractions: List[float]            # % of file retrieved per attempt
    loss_rate: float
    file_size: int

    @property
    def stall_count(self) -> int:
        return sum(1 for f in self.fractions if f < 1.0)

    @property
    def success_count(self) -> int:
        return len(self.fractions) - self.stall_count

    @property
    def mean_fraction(self) -> float:
        if not self.fractions:
            return 0.0
        return sum(self.fractions) / len(self.fractions)

    def report(self) -> str:
        rows = [(i + 1, f"{fraction * 100:.1f}%")
                for i, fraction in enumerate(self.fractions)]
        body = format_table(
            f"Figure 6 — % of file retrieved before stall "
            f"(naive encoding, {self.loss_rate:.0%} loss, "
            f"{len(self.fractions)} runs)",
            ["run", "% retrieved"], rows)
        summary = (f"\nsuccessful retrievals: {self.success_count}/"
                   f"{len(self.fractions)}   mean retrieved: "
                   f"{self.mean_fraction * 100:.1f}% "
                   f"({int(self.mean_fraction * self.file_size)} bytes of "
                   f"{self.file_size})")
        return body + summary


def figure6(runs: int = 50, loss_rate: float = 0.01,
            corpus: str = "ebook", time_limit: float = 400.0,
            workers: Optional[int] = None) -> Figure6Result:
    data = corpus_object(corpus, seed=3)
    spec = SweepSpec(
        base=ExperimentConfig(corpus=corpus, policy="naive",
                              loss_rate=loss_rate, time_limit=time_limit),
        seeds=[1000 + run_index for run_index in range(runs)])
    swept = run_sweep(spec, workers=workers)
    return Figure6Result(
        fractions=[cell.result.fraction_retrieved for cell in swept],
        loss_rate=loss_rate, file_size=len(data))


# ---------------------------------------------------------------------------
# Figures 10 & 11 — bytes-sent and download-time ratios vs loss rate
# ---------------------------------------------------------------------------

@dataclass
class Figure10_11Result:
    bytes_series: List[Series]
    delay_series: List[Series]
    stalls: int

    def report_bytes(self) -> str:
        return format_series(
            "Figure 10 — bytes sent (DRE / no-DRE) vs packet loss rate",
            "loss", self.bytes_series)

    def report_delay(self) -> str:
        return format_series(
            "Figure 11 — download time (DRE / no-DRE) vs packet loss rate",
            "loss", self.delay_series)

    def report(self) -> str:
        return self.report_bytes() + "\n\n" + self.report_delay()


def figure10_11(policies: Sequence[str] = ("cache_flush", "tcp_seq"),
                files: Sequence[str] = ("file1", "file2"),
                losses: Sequence[float] = DEFAULT_LOSS_SWEEP,
                seeds: Sequence[int] = DEFAULT_SEEDS,
                workers: Optional[int] = None) -> Figure10_11Result:
    spec = SweepSpec(
        base=ExperimentConfig(),
        grid={"policy": list(policies), "corpus": list(files),
              "loss_rate": list(losses)},
        seeds=tuple(seeds), paired_baseline=True)
    swept = run_sweep(spec, workers=workers)
    cells = iter(swept)
    bytes_series, delay_series = [], []
    stalls = 0
    for policy in policies:
        for corpus in files:
            label = f"{policy}({corpus})"
            runs = _RatioRuns(Series(label), Series(label))
            for loss in losses:
                for _seed in seeds:
                    runs.add(loss, next(cells).ratio_point(loss))
            bytes_series.append(runs.bytes_series)
            delay_series.append(runs.delay_series)
            stalls += runs.stalls
    return Figure10_11Result(bytes_series=bytes_series,
                             delay_series=delay_series, stalls=stalls)


# ---------------------------------------------------------------------------
# Figure 12 — k-distance performance vs k
# ---------------------------------------------------------------------------

@dataclass
class Figure12Result:
    bytes_series: List[Series]   # bytes sent normalised by file size
    delay_series: List[Series]   # delay normalised by loss-free download time
    stalls: int

    def report(self) -> str:
        return (format_series(
            "Figure 12 — k-distance: bytes sent (normalised by file size) "
            "vs k", "k", self.bytes_series)
            + "\n\n" + format_series(
            "Figure 12 — k-distance: delay (normalised by loss-free "
            "download time) vs k", "k", self.delay_series))


def figure12(ks: Sequence[int] = (2, 4, 8, 16, 32, 48, 64, 80),
             losses: Sequence[float] = (0.05, 0.10),
             corpus: str = "file1",
             seeds: Sequence[int] = DEFAULT_SEEDS,
             workers: Optional[int] = None) -> Figure12Result:
    file_size = len(corpus_object(corpus, seed=3))
    base = ExperimentConfig(corpus=corpus, policy="k_distance")
    # Normalisation denominators, per the figure caption: file size for
    # bytes; the download time in the absence of packet losses for delay.
    prelude = run_sweep(SweepSpec(
        base=base.with_updates(policy_kwargs={"k": 8}, loss_rate=0.0),
        seeds=tuple(seeds)), workers=workers)
    loss_free = {cell.seed: cell.result.download_time for cell in prelude}
    swept = run_sweep(SweepSpec(
        base=base,
        grid={"loss_rate": list(losses),
              "policy_kwargs": [{"k": k} for k in ks]},
        seeds=tuple(seeds)), workers=workers)
    cells = iter(swept)
    bytes_series, delay_series, stalls = [], [], 0
    for loss in losses:
        bseries = Series(f"bytes({loss:.0%})")
        dseries = Series(f"delay({loss:.0%})")
        for k in ks:
            for seed in seeds:
                result = next(cells).result
                bseries.point(k).add(result.forward_bytes_on_link / file_size)
                if result.download_time is not None and loss_free[seed]:
                    dseries.point(k).add(
                        result.download_time / loss_free[seed])
                else:
                    stalls += 1
        bytes_series.append(bseries)
        delay_series.append(dseries)
    return Figure12Result(bytes_series=bytes_series,
                          delay_series=delay_series, stalls=stalls)


# ---------------------------------------------------------------------------
# Figure 13 — perceived vs actual packet loss rate
# ---------------------------------------------------------------------------

@dataclass
class Figure13Result:
    series: List[Series]

    def report(self) -> str:
        return format_series(
            "Figure 13 — perceived packet loss rate (%) vs actual loss "
            "rate", "actual", self.series, precision=1)


def figure13(policies: Sequence[Tuple[str, dict]] = (
                 ("cache_flush", {}), ("tcp_seq", {}),
                 ("k_distance", {"k": 8})),
             losses: Sequence[float] = DEFAULT_LOSS_SWEEP,
             corpus: str = "file1",
             seeds: Sequence[int] = DEFAULT_SEEDS,
             workers: Optional[int] = None) -> Figure13Result:
    swept = run_sweep(SweepSpec(
        base=ExperimentConfig(corpus=corpus),
        grid={"policy,policy_kwargs": [(policy, dict(kwargs))
                                       for policy, kwargs in policies],
              "loss_rate": list(losses)},
        seeds=tuple(seeds)), workers=workers)
    cells = iter(swept)
    series_list = []
    for policy, kwargs in policies:
        label = policy if not kwargs else f"{policy}(k={kwargs.get('k')})"
        series = Series(label)
        for loss in losses:
            for _seed in seeds:
                result = next(cells).result
                series.point(loss).add(result.perceived_loss_rate * 100)
        series_list.append(series)
    return Figure13Result(series=series_list)


# ---------------------------------------------------------------------------
# Table II — the three schemes at 5 % and 10 % loss (k = 8)
# ---------------------------------------------------------------------------

@dataclass
class Table2Result:
    cells: Dict[Tuple[str, str, float], float]  # (metric, policy, loss) -> v
    policies: Sequence[str]

    def report(self) -> str:
        rows = []
        for metric in ("Bytes Sent", "Delay"):
            for loss in (0.05, 0.10):
                row: List[object] = [f"{metric} ({loss:.0%} loss)"]
                for policy in self.policies:
                    value = self.cells.get((metric, policy, loss))
                    row.append("-" if value is None else f"{value:.2f}")
                rows.append(row)
        return format_table(
            "Table II — all three encoding schemes, File 1 "
            "(k-distance: k=8)",
            ["metric"] + list(self.policies), rows)


def table2(losses: Sequence[float] = (0.05, 0.10),
           corpus: str = "file1", k: int = 8,
           seeds: Sequence[int] = DEFAULT_SEEDS,
           workers: Optional[int] = None) -> Table2Result:
    policies = [("cache_flush", {}), ("tcp_seq", {}),
                ("k_distance", {"k": k})]
    swept = run_sweep(SweepSpec(
        base=ExperimentConfig(corpus=corpus),
        grid={"policy,policy_kwargs": [(policy, dict(kwargs))
                                       for policy, kwargs in policies],
              "loss_rate": list(losses)},
        seeds=tuple(seeds), paired_baseline=True), workers=workers)
    sweep_cells = iter(swept)
    cells: Dict[Tuple[str, str, float], float] = {}
    for policy, _kwargs in policies:
        for loss in losses:
            byte_ratios, delay_ratios = [], []
            for _seed in seeds:
                point = next(sweep_cells).ratio_point(loss)
                byte_ratios.append(point.bytes_ratio)
                if point.delay_ratio is not None:
                    delay_ratios.append(point.delay_ratio)
            cells[("Bytes Sent", policy, loss)] = (
                sum(byte_ratios) / len(byte_ratios))
            if delay_ratios:
                cells[("Delay", policy, loss)] = (
                    sum(delay_ratios) / len(delay_ratios))
    return Table2Result(cells=cells, policies=[p for p, _ in policies])


# ---------------------------------------------------------------------------
# Headline claims (§VI first paragraph)
# ---------------------------------------------------------------------------

@dataclass
class HeadlineResult:
    byte_savings: float
    delay_reduction: float

    def report(self) -> str:
        return format_table(
            "Headline (§VI) — gains at zero packet loss",
            ["metric", "paper", "measured"],
            [["byte savings", "45%", f"{self.byte_savings * 100:.1f}%"],
             ["download-time reduction", "28%",
              f"{self.delay_reduction * 100:.1f}%"]])


def headline(corpus: str = "file1", policy: str = "cache_flush",
             seeds: Sequence[int] = DEFAULT_SEEDS,
             workers: Optional[int] = None) -> HeadlineResult:
    swept = run_sweep(SweepSpec(
        base=ExperimentConfig(corpus=corpus, policy=policy, loss_rate=0.0),
        seeds=tuple(seeds), paired_baseline=True), workers=workers)
    byte_ratios, delay_ratios = [], []
    for cell in swept:
        point = cell.ratio_point(0.0)
        byte_ratios.append(point.bytes_ratio)
        if point.delay_ratio is not None:
            delay_ratios.append(point.delay_ratio)
    return HeadlineResult(
        byte_savings=1.0 - sum(byte_ratios) / len(byte_ratios),
        delay_reduction=1.0 - sum(delay_ratios) / max(1, len(delay_ratios)))


# ---------------------------------------------------------------------------
# Ablation (§VII) — average packet size: cache flush vs k-distance
# ---------------------------------------------------------------------------

@dataclass
class AblationResult:
    rows: List[Tuple[str, float, int]]  # (label, avg pkt size, pkt count)

    def report(self) -> str:
        return format_table(
            "Ablation (§VII) — average data packet size and packet count "
            "at 9% loss (paper: cache_flush 835 B/~390 pkts, k=8 920 B, "
            "k=50 634 B/430 pkts)",
            ["scheme", "avg packet size (B)", "packets sent"],
            [[label, f"{size:.0f}", count] for label, size, count in self.rows])


def ablation_packet_size(loss: float = 0.09, corpus: str = "file1",
                         seeds: Sequence[int] = DEFAULT_SEEDS) -> AblationResult:
    schemes = [("cache_flush", "cache_flush", {}),
               ("k_distance(k=8)", "k_distance", {"k": 8}),
               ("k_distance(k=50)", "k_distance", {"k": 50})]
    rows = []
    for label, policy, kwargs in schemes:
        sizes, counts = [], []
        for seed in seeds:
            result = run_transfer(ExperimentConfig(
                corpus=corpus, policy=policy, policy_kwargs=dict(kwargs),
                loss_rate=loss, seed=seed))
            if result.data_packets_sent:
                sizes.append(result.avg_data_packet_size)
                counts.append(result.data_packets_sent)
        rows.append((label, sum(sizes) / max(1, len(sizes)),
                     int(sum(counts) / max(1, len(counts)))))
    return AblationResult(rows=rows)


# ---------------------------------------------------------------------------
# §IV-C extrapolations — stall probability vs size, retrieved vs loss
# ---------------------------------------------------------------------------

@dataclass
class StallScalingResult:
    #: object size -> fraction of runs that stalled (naive policy)
    stall_by_size: Dict[int, float]
    #: loss rate -> mean bytes retrieved before the stall
    retrieved_by_loss: Dict[float, float]
    loss_for_sizes: float

    def report(self) -> str:
        size_rows = [[f"{size:,}", f"{fraction:.0%}"]
                     for size, fraction in sorted(self.stall_by_size.items())]
        loss_rows = [[f"{loss:.1%}", f"{int(mean_bytes):,}",
                      f"{1460 / loss if loss else float('inf'):,.0f}"]
                     for loss, mean_bytes
                     in sorted(self.retrieved_by_loss.items())]
        return (format_table(
            f"§IV-C — naive-policy stall probability vs object size "
            f"({self.loss_for_sizes:.1%} loss)",
            ["object size (B)", "stalled"], size_rows)
            + "\n\n" + format_table(
            "§IV-C — mean bytes retrieved before stall vs loss rate "
            "(paper: ≈ MSS/p)",
            ["loss", "measured mean (B)", "MSS/p prediction (B)"],
            loss_rows))


def stall_scaling(sizes: Sequence[int] = (40 * 1024, 160 * 1024,
                                          640 * 1024, 2 * 1024 * 1024),
                  size_loss: float = 0.002,
                  losses: Sequence[float] = (0.01, 0.02, 0.05),
                  corpus: str = "file1",
                  seeds: Sequence[int] = (11, 23, 37, 51, 77, 101, 137,
                                          173, 211, 251)) -> StallScalingResult:
    """Quantify §IV-C's extrapolation.

    The paper argues that because a single loss kills a naive-encoded
    transfer, large objects (50 % of web volume is >4 MB per Gill et
    al.) are almost guaranteed to fail even at low loss rates — stall
    probability ≈ 1-(1-p)^(size/MSS).  And the average amount retrieved
    before the stall is the mean run to the first loss, ≈ MSS/p bytes.
    """
    stall_by_size: Dict[int, float] = {}
    for size in sizes:
        stalls = 0
        for seed in seeds:
            result = run_transfer(ExperimentConfig(
                corpus=corpus, file_size=size, policy="naive",
                loss_rate=size_loss, seed=seed, time_limit=400.0))
            if not result.completed:
                stalls += 1
        stall_by_size[size] = stalls / len(seeds)

    retrieved_by_loss: Dict[float, float] = {}
    for loss in losses:
        retrieved = []
        for seed in seeds:
            result = run_transfer(ExperimentConfig(
                corpus=corpus, policy="naive", loss_rate=loss, seed=seed,
                time_limit=400.0))
            retrieved.append(result.outcome.bytes_received)
        retrieved_by_loss[loss] = sum(retrieved) / len(retrieved)
    return StallScalingResult(stall_by_size=stall_by_size,
                              retrieved_by_loss=retrieved_by_loss,
                              loss_for_sizes=size_loss)


# ---------------------------------------------------------------------------
# Impairment matrix (§IV) — loss vs corruption vs re-ordering
# ---------------------------------------------------------------------------

@dataclass
class ImpairmentResult:
    #: (policy, impairment kind, rate) -> (completed fraction, delay ratio)
    cells: Dict[Tuple[str, str, float], Tuple[float, Optional[float]]]
    policies: Sequence[str]
    kinds: Sequence[str]
    rates: Sequence[float]

    def report(self) -> str:
        rows = []
        for policy in self.policies:
            for kind in self.kinds:
                row: List[object] = [policy, kind]
                for rate in self.rates:
                    completed, delay = self.cells[(policy, kind, rate)]
                    if completed < 1.0:
                        row.append(f"stall({completed:.0%})")
                    elif delay is None:
                        row.append("done")
                    else:
                        row.append(f"{delay:.2f}x")
                rows.append(row)
        return format_table(
            "Impairment matrix (§IV) — completion / delay ratio per "
            "impairment kind",
            ["policy", "impairment"] + [f"{rate:.0%}" for rate in self.rates],
            rows)


def impairment_matrix(policies: Sequence[str] = ("naive", "cache_flush"),
                      kinds: Sequence[str] = ("loss", "corrupt", "reorder"),
                      rates: Sequence[float] = (0.01, 0.05),
                      corpus: str = "file1",
                      seeds: Sequence[int] = DEFAULT_SEEDS) -> ImpairmentResult:
    """§IV: a single loss, corruption *or* re-ordering can trigger the
    circular-dependency problem; the robust policies survive all three."""
    field_by_kind = {"loss": "loss_rate", "corrupt": "corrupt_rate",
                     "reorder": "reorder_rate"}
    baselines: Dict[tuple, TransferResult] = {}
    cells: Dict[Tuple[str, str, float], Tuple[float, Optional[float]]] = {}
    for policy in policies:
        for kind in kinds:
            for rate in rates:
                impairments = {field_by_kind[kind]: rate}
                completed, delays = 0, []
                for seed in seeds:
                    config = ExperimentConfig(corpus=corpus, policy=policy,
                                              seed=seed, **impairments)
                    point = _paired_ratio(config, baselines)
                    if point.dre.completed:
                        completed += 1
                    if point.delay_ratio is not None:
                        delays.append(point.delay_ratio)
                cells[(policy, kind, rate)] = (
                    completed / len(seeds),
                    sum(delays) / len(delays) if delays else None)
    return ImpairmentResult(cells=cells, policies=list(policies),
                            kinds=list(kinds), rates=list(rates))


# ---------------------------------------------------------------------------
# Extensions (§VIII / §IX) — schemes the paper discusses but did not build
# ---------------------------------------------------------------------------

@dataclass
class ExtensionsResult:
    bytes_series: List[Series]
    delay_series: List[Series]
    stall_counts: Dict[str, int]

    def report(self) -> str:
        stall_rows = [[name, count] for name, count
                      in sorted(self.stall_counts.items())]
        return (format_series(
            "Extensions — bytes ratio vs loss", "loss", self.bytes_series)
            + "\n\n" + format_series(
            "Extensions — delay ratio vs loss", "loss", self.delay_series)
            + "\n\n" + format_table(
            "Extensions — stalled runs", ["scheme", "stalls"], stall_rows))


def extensions(losses: Sequence[float] = (0.0, 0.01, 0.05, 0.10),
               corpus: str = "file1",
               seeds: Sequence[int] = DEFAULT_SEEDS) -> ExtensionsResult:
    schemes = [("ack_gated", {}), ("adaptive_k", {})]
    baselines: Dict[tuple, TransferResult] = {}
    bytes_series, delay_series = [], []
    stall_counts: Dict[str, int] = {}
    for policy, kwargs in schemes:
        runs = _RatioRuns(Series(policy), Series(policy))
        for loss in losses:
            for seed in seeds:
                config = ExperimentConfig(corpus=corpus, policy=policy,
                                          policy_kwargs=dict(kwargs),
                                          loss_rate=loss, seed=seed)
                runs.add(loss, _paired_ratio(config, baselines))
        bytes_series.append(runs.bytes_series)
        delay_series.append(runs.delay_series)
        stall_counts[policy] = runs.stalls
    return ExtensionsResult(bytes_series=bytes_series,
                            delay_series=delay_series,
                            stall_counts=stall_counts)
