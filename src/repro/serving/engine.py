"""The serving engine: a request stream against one shared-cache testbed.

One :func:`run_serving` call is the serving analogue of
:func:`repro.experiments.runner.run_transfer`: it builds the Fig. 3
topology once, replaces the single-object server with a Zipf catalog
server, arms the gateways with a shared
:class:`~repro.core.shardcache.ShardedByteCache` per direction, and
replays a pre-generated session schedule as overlapping TCP flows —
hundreds to thousands through the one bottleneck and the one cache
pair.

Methodology notes baked in here (DESIGN.md §15 discusses why):

* **Warm-up exclusion.**  A cold byte cache scores near-zero hits; the
  steady-state numbers snapshot the gateway/link counters when the
  first ``warmup_fraction`` of requests have finished and report deltas
  from there.  Download-time percentiles likewise only include
  requests scheduled after the warm-up boundary.
* **Pooled per-flow state.**  A churning population leaks state in
  places a single transfer never notices (the stack's connection
  table, per-connection telemetry gauges).  The :class:`FlowPool`
  sweeps fully-closed connections out of both stacks after a linger
  longer than the max RTO, and telemetry runs with ``per_connection``
  off; the pool's high-water mark is the invariant the soak test
  bounds.
* **Determinism.**  The schedule is generated before the simulator
  starts, every random draw inside the run comes from the testbed's
  seeded streams, and the report contains no wall-clock — so a report
  is a pure function of its :class:`ServingSpec` and serial/parallel
  sweeps can be compared bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from ..app.transfer import TransferOutcome
from ..experiments.config import ExperimentConfig
from ..experiments.runner import Fetch, Testbed, build_testbed, run_fetches
from ..metrics.series import percentile
from ..net.tcp import TCPStack
from ..sim.rng import derive_seed
from ..workload.catalog import CatalogSpec, ContentCatalog
from .sessions import SessionSpec, generate_sessions

SERVING_SCHEMA = "serving/v1"


@dataclass
class ServingSpec:
    """Everything needed to run (and re-run) one serving simulation."""

    # -- population / workload
    users: int = 50
    n_contents: int = 200
    alpha: float = 0.8
    mean_object_bytes: int = 8 * 1024
    redundancy: float = 0.5
    arrival_rate: float = 25.0
    think_time: float = 0.3
    requests_per_user: float = 2.0
    max_requests: Optional[int] = None

    # -- shared cache / policy
    policy: str = "cache_flush"
    cache_bytes: int = 4 * 1024 * 1024
    cache_shards: int = 8
    cache_admission: float = 1.0
    cache_eviction: str = "lru"

    # -- link
    bandwidth: float = 8_000_000.0
    loss_rate: float = 0.01

    # -- run control
    seed: int = 0
    warmup_fraction: float = 0.2
    time_limit: float = 3600.0
    fetch_timeout: float = 120.0
    linger: float = 10.0            # > max RTO before pruning closed conns
    verify: bool = False
    telemetry: bool = False
    telemetry_kwargs: Dict[str, Any] = field(default_factory=dict)

    def catalog_spec(self) -> CatalogSpec:
        return CatalogSpec(
            n_contents=self.n_contents, alpha=self.alpha,
            mean_object_bytes=self.mean_object_bytes,
            redundancy=self.redundancy,
            seed=derive_seed(self.seed, "serving:catalog"))

    def session_spec(self) -> SessionSpec:
        return SessionSpec(
            users=self.users, arrival_rate=self.arrival_rate,
            requests_per_user=self.requests_per_user,
            think_time=self.think_time,
            seed=derive_seed(self.seed, "serving:sessions"),
            max_requests=self.max_requests)

    def run(self, config: Optional[ExperimentConfig] = None,
            testbed: Optional[Testbed] = None) -> Dict[str, Any]:
        """:func:`run_serving`: a sweep's cell runner, or a chaos
        target's on the testbed the campaign armed."""
        return run_serving(self, config, testbed)

    def experiment_config(self) -> ExperimentConfig:
        telemetry_kwargs = {"per_connection": False}
        telemetry_kwargs.update(self.telemetry_kwargs)
        return ExperimentConfig(
            policy=self.policy,
            cache_bytes=self.cache_bytes,
            cache_shards=self.cache_shards,
            cache_admission=self.cache_admission,
            cache_eviction=self.cache_eviction,
            bandwidth=self.bandwidth,
            loss_rate=self.loss_rate,
            seed=self.seed,
            time_limit=self.time_limit,
            verify=self.verify,
            telemetry=self.telemetry,
            telemetry_kwargs=telemetry_kwargs)


class _CatalogFiles:
    """``files``-shaped view over a catalog (only ``.get`` is consumed)."""

    def __init__(self, catalog: ContentCatalog):
        self.catalog = catalog

    def get(self, name: Optional[str]) -> Optional[bytes]:
        if name is None:
            return None
        try:
            cid = self.catalog.content_id(name)
        except (KeyError, ValueError):
            return None
        return self.catalog.object_bytes(cid)


class FlowPool:
    """Pooled per-flow TCP state: sweeps closed connections out of the
    stacks so a churning population leaves no residue.

    A connection is released only after it has been observed closed for
    ``linger`` seconds (longer than the max RTO), so a peer still
    retransmitting its FIN finds the state it needs; releasing earlier
    would silently eat the retransmission and stall the peer's
    teardown.  ``high_water`` is the largest combined connection-table
    size ever observed — the bound the soak test asserts stays
    proportional to *concurrent* flows, not total requests.
    """

    def __init__(self, sim, stacks: List[TCPStack],
                 linger: float = 10.0, interval: float = 2.5):
        self.sim = sim
        self.stacks = stacks
        self.linger = linger
        self.interval = interval
        self.high_water = 0
        self.released = 0
        self._closed_since: Dict[int, tuple] = {}

    def start(self) -> None:
        self.sim.after(self.interval, self._tick)

    def sweep(self) -> None:
        now = self.sim.now
        total = 0
        for stack in self.stacks:
            for conn in stack.connections():
                total += 1
                if conn.is_open:
                    continue
                key = id(conn)
                if key not in self._closed_since:
                    self._closed_since[key] = (now, conn, stack)
        if total > self.high_water:
            self.high_water = total
        for key, (closed_at, conn, stack) in list(self._closed_since.items()):
            if now - closed_at >= self.linger:
                if stack.release(conn):
                    self.released += 1
                del self._closed_since[key]

    def _tick(self) -> None:
        self.sweep()
        self.sim.after(self.interval, self._tick)

    def open_connections(self) -> int:
        return sum(stack.connection_count() for stack in self.stacks)


@dataclass
class _CounterSnapshot:
    """Gateway/link counters at the warm-up boundary."""

    data_packets: int = 0
    encoded_packets: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    decoded_ok: int = 0
    undecodable_dropped: int = 0
    evictions: int = 0


def _snapshot(testbed: Testbed) -> _CounterSnapshot:
    snap = _CounterSnapshot()
    if testbed.gateways is not None:
        enc = testbed.gateways.encoder
        snap.data_packets = enc.stats.data_packets
        snap.encoded_packets = enc.stats.encoded_packets
        snap.bytes_before = enc.stats.bytes_before
        snap.bytes_after = enc.stats.bytes_after
        snap.decoded_ok = testbed.gateways.decoder.stats.decoded_ok
        snap.undecodable_dropped = (
            testbed.gateways.decoder.stats.undecodable_dropped)
        snap.evictions = (enc.cache.store.evictions
                          + testbed.gateways.decoder.cache.store.evictions)
    return snap


def run_serving(spec: ServingSpec, config: Optional[ExperimentConfig] = None,
                testbed: Optional[Testbed] = None) -> Dict[str, Any]:
    """Run one serving simulation; returns the ``serving/v1`` report.

    A caller that arms faults first passes the ``testbed`` it built
    from ``config``; by default both follow from ``spec``.
    """
    catalog = ContentCatalog(spec.catalog_spec())
    schedule = generate_sessions(spec.session_spec(), catalog)
    if not schedule:
        raise ValueError("empty session schedule")

    if testbed is None:
        config = spec.experiment_config()
        testbed = build_testbed(config)
    sim = testbed.sim

    pool = FlowPool(sim, [testbed.client_stack, testbed.server_stack],
                    linger=spec.linger)
    pool.start()

    total = len(schedule)
    warmup_n = min(total - 1, int(total * spec.warmup_fraction))
    state = {
        "done": 0,
        "completed": 0,
        "stalled": 0,
        "content_bad": 0,
        "snapshot": None,            # set at the warm-up boundary
        "snapshot_time": None,
    }
    durations_all: List[float] = []
    durations_steady: List[float] = []  # requests scheduled post-warm-up

    def finish_one(order: int, outcome: TransferOutcome) -> None:
        state["done"] += 1
        if outcome.completed:
            state["completed"] += 1
            duration = outcome.duration
            if duration is not None:
                durations_all.append(duration)
                if order >= warmup_n:
                    durations_steady.append(duration)
            if outcome.content_ok is False:
                state["content_bad"] += 1
        elif outcome.stalled:
            state["stalled"] += 1
        if state["done"] == warmup_n and state["snapshot"] is None:
            state["snapshot"] = _snapshot(testbed)
            state["snapshot_time"] = sim.now

    run = run_fetches(
        testbed, config, _CatalogFiles(catalog),
        [Fetch(catalog.name_of(req.content_id), at=req.time,
               timeout=spec.fetch_timeout) for req in schedule],
        on_done=finish_one)

    # Requests still pending at the time limit count as unfinished.
    unfinished = total - state["done"]
    if state["snapshot"] is None:
        state["snapshot"] = _CounterSnapshot()
        state["snapshot_time"] = 0.0
    snap: _CounterSnapshot = state["snapshot"]
    final = _snapshot(testbed)
    pool.sweep()

    steady_data = final.data_packets - snap.data_packets
    steady_encoded = final.encoded_packets - snap.encoded_packets
    steady_before = final.bytes_before - snap.bytes_before
    steady_after = final.bytes_after - snap.bytes_after

    report: Dict[str, Any] = {
        "schema": SERVING_SCHEMA,
        "spec": asdict(spec),
        "catalog": catalog.describe(),
        "requests": {
            "total": total,
            "warmup": warmup_n,
            "completed": state["completed"],
            "timeouts": run.timeouts,
            "stalled": state["stalled"],
            "unfinished": unfinished,
            "content_mismatches": state["content_bad"],
        },
        "steady": {
            "since": state["snapshot_time"],
            "data_packets": steady_data,
            "hit_ratio": (steady_encoded / steady_data
                          if steady_data else 0.0),
            "bytes_saved_ratio": (1.0 - steady_after / steady_before
                                  if steady_before else 0.0),
            "p50_download_s": percentile(durations_steady, 0.50),
            "p99_download_s": percentile(durations_steady, 0.99),
            "samples": len(durations_steady),
        },
        "overall": {
            "hit_ratio": (final.encoded_packets / final.data_packets
                          if final.data_packets else 0.0),
            "bytes_saved_ratio": (1.0 - final.bytes_after / final.bytes_before
                                  if final.bytes_before else 0.0),
            "p50_download_s": percentile(durations_all, 0.50),
            "p99_download_s": percentile(durations_all, 0.99),
            "undecodable_dropped": final.undecodable_dropped,
        },
        "pool": {
            "high_water": pool.high_water,
            "released": pool.released,
            "open_at_end": pool.open_connections(),
        },
        "sim_time": sim.now,
    }
    if testbed.gateways is not None:
        enc_cache = testbed.gateways.encoder.cache
        dec_cache = testbed.gateways.decoder.cache
        report["cache"] = {
            "bytes_used": enc_cache.store.bytes_used,
            "byte_budget": getattr(enc_cache, "byte_budget",
                                   enc_cache.store.byte_budget),
            "entries": len(enc_cache.store),
            "log_slots": enc_cache.table.capacity,
            "evictions": (enc_cache.store.evictions
                          + dec_cache.store.evictions),
            "admission_rejected": getattr(enc_cache, "admission_rejected", 0),
            "pressure": (enc_cache.store.bytes_used
                         / max(1, enc_cache.store.byte_budget)),
        }
        occupancy = getattr(enc_cache, "shard_occupancy", None)
        if occupancy is not None:
            report["cache"]["shards"] = occupancy()
    if testbed.verifier is not None:
        # The harness checked both shared caches every tick and once
        # more at the end of the run.
        report["oracle_checks"] = testbed.verifier.invariant_checks
    if testbed.telemetry is not None:
        report["telemetry"] = testbed.telemetry.export(
            reason="completed", dump_flight_recorder=False)
    return report
