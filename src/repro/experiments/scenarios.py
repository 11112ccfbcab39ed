"""One callable per paper artifact (every table and figure of §III–§VII).

Each scenario returns a small result object carrying both the raw data
and a ``report()`` string shaped like the paper's table/figure, which
the benchmark harness prints.  Loss rates are fractions (0.05 = 5 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from .sweep import SweepResult, SweepSpec, parallel_map, run_sweep

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


def _scheme(params: Dict[str, Any]) -> str:
    """A cell's encoding scheme as the reports name it: the policy, with
    its k when it takes one."""
    kwargs = params.get("policy_kwargs")
    if not kwargs:
        return params["policy"]
    return f"{params['policy']}(k={kwargs.get('k')})"


@dataclass
class _RatioRuns:
    """One line of a paired ratio-vs-loss figure (Figures 10-11, the
    extensions)."""

    bytes_series: Series
    delay_series: Series
    stalls: int = 0

    def add(self, x: float, point: RatioPoint) -> None:
        self.bytes_series.point(x).add(point.bytes_ratio)
        if point.delay_ratio is None:
            self.stalls += 1
        else:
            self.delay_series.point(x).add(point.delay_ratio)


def _ratio_runs(swept: SweepResult,
                label: Callable[[Dict[str, Any]], str]
                ) -> Dict[str, _RatioRuns]:
    """The paired cells of ``swept`` as lines named ``label(params)``,
    each point a loss rate; lines in the order their first cell ran."""
    runs: Dict[str, _RatioRuns] = {}
    for cell in swept:
        name = label(cell.params)
        if name not in runs:
            runs[name] = _RatioRuns(Series(name), Series(name))
        loss = cell.params["loss_rate"]
        runs[name].add(loss, cell.ratio_point(loss))
    return runs


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
    runs = _ratio_runs(
        run_sweep(spec, workers=workers),
        lambda params: f"{params['policy']}({params['corpus']})")
    return Figure10_11Result(
        bytes_series=[line.bytes_series for line in runs.values()],
        delay_series=[line.delay_series for line in runs.values()],
        stalls=sum(line.stalls for line in runs.values()))


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
    lines = {loss: (Series(f"bytes({loss:.0%})"), Series(f"delay({loss:.0%})"))
             for loss in losses}
    stalls = 0
    for cell in swept:
        bseries, dseries = lines[cell.params["loss_rate"]]
        k = cell.params["policy_kwargs"]["k"]
        result, loss_free_s = cell.result, loss_free[cell.seed]
        bseries.point(k).add(result.forward_bytes_on_link / file_size)
        if result.download_time is not None and loss_free_s:
            dseries.point(k).add(result.download_time / loss_free_s)
        else:
            stalls += 1
    return Figure12Result(
        bytes_series=[bseries for bseries, _ in lines.values()],
        delay_series=[dseries for _, dseries in lines.values()],
        stalls=stalls)


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
    series: Dict[str, Series] = {}
    for cell in swept:
        label = _scheme(cell.params)
        line = series.setdefault(label, Series(label))
        line.point(cell.params["loss_rate"]).add(
            cell.result.perceived_loss_rate * 100)
    return Figure13Result(series=list(series.values()))


# ---------------------------------------------------------------------------
# Table II — the three schemes at 5 % and 10 % loss (k = 8)
# ---------------------------------------------------------------------------

@dataclass
class Table2Result:
    cells: Dict[Tuple[str, str, float], float]  # (metric, policy, loss) -> v
    policies: Sequence[str]
    losses: Sequence[float]

    def report(self) -> str:
        rows = []
        for metric in ("Bytes Sent", "Delay"):
            for loss in self.losses:
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
    cells: Dict[Tuple[str, str, float], float] = {}
    for (policy, loss), group in swept.pooled("policy", "loss_rate").items():
        points = [cell.ratio_point(loss) for cell in group]
        cells[("Bytes Sent", policy, loss)] = (
            sum(point.bytes_ratio for point in points) / len(points))
        delay_ratios = [point.delay_ratio for point in points
                        if point.delay_ratio is not None]
        if delay_ratios:
            cells[("Delay", policy, loss)] = (
                sum(delay_ratios) / len(delay_ratios))
    return Table2Result(cells=cells, policies=[p for p, _ in policies],
                        losses=list(losses))


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
    swept = run_sweep(SweepSpec(
        base=ExperimentConfig(corpus=corpus, loss_rate=loss),
        grid={"policy,policy_kwargs": [("cache_flush", {}),
                                       ("k_distance", {"k": 8}),
                                       ("k_distance", {"k": 50})]},
        seeds=tuple(seeds)))
    sent: Dict[str, List[TransferResult]] = {}
    for cell in swept:
        runs = sent.setdefault(_scheme(cell.params), [])
        if cell.result.data_packets_sent:
            runs.append(cell.result)
    rows = []
    for label, runs in sent.items():
        count = max(1, len(runs))
        rows.append((label,
                     sum(run.avg_data_packet_size for run in runs) / count,
                     int(sum(run.data_packets_sent for run in runs) / count)))
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
    base = ExperimentConfig(corpus=corpus, policy="naive", time_limit=400.0)
    by_size = run_sweep(SweepSpec(base=base.with_updates(loss_rate=size_loss),
                                  grid={"file_size": list(sizes)},
                                  seeds=tuple(seeds)))
    by_loss = run_sweep(SweepSpec(base=base, grid={"loss_rate": list(losses)},
                                  seeds=tuple(seeds)))
    return StallScalingResult(
        stall_by_size={
            size: sum(not cell.result.completed for cell in group) / len(group)
            for (size,), group in by_size.pooled("file_size").items()},
        retrieved_by_loss={
            loss: sum(cell.result.outcome.bytes_received for cell in group)
            / len(group)
            for (loss,), group in by_loss.pooled("loss_rate").items()},
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
    # One sweep per kind: at rate 0 the three kinds are one config, but
    # each keeps its own row.
    cells: Dict[Tuple[str, str, float], Tuple[float, Optional[float]]] = {}
    for kind in kinds:
        rate_field = f"{kind}_rate"
        swept = run_sweep(SweepSpec(
            base=ExperimentConfig(corpus=corpus),
            grid={"policy": list(policies), rate_field: list(rates)},
            seeds=tuple(seeds), paired_baseline=True))
        for (policy, rate), group in swept.pooled("policy",
                                                  rate_field).items():
            points = [cell.ratio_point(rate) for cell in group]
            delays = [point.delay_ratio for point in points
                      if point.delay_ratio is not None]
            cells[(policy, kind, rate)] = (
                sum(cell.result.completed for cell in group) / len(group),
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
    runs = _ratio_runs(run_sweep(SweepSpec(
        base=ExperimentConfig(corpus=corpus),
        grid={"policy": ["ack_gated", "adaptive_k"],
              "loss_rate": list(losses)},
        seeds=tuple(seeds), paired_baseline=True)), _scheme)
    return ExtensionsResult(
        bytes_series=[line.bytes_series for line in runs.values()],
        delay_series=[line.delay_series for line in runs.values()],
        stall_counts={name: line.stalls for name, line in runs.items()})
